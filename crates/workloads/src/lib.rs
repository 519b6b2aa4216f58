//! # workloads
//!
//! The benchmark programs of the paper's evaluation (§5.3), written in the
//! Ruby subset:
//!
//! * [`micro`] — the While and Iterator micro-benchmarks of Fig. 4;
//! * [`npb`] — scaled-down ports of the seven Ruby NAS Parallel
//!   Benchmarks (BT, CG, FT, IS, LU, MG, SP) keeping each kernel's
//!   parallelization structure and memory character;
//! * [`webrick`] — the WEBrick HTTP-server model (request parsing with
//!   regexes, response building, blocking-I/O points that release the
//!   GIL);
//! * [`rails`] — the Ruby-on-Rails model (routing → controller → query on
//!   the relational-store substrate → template render);
//! * [`taskserver`] — the task-execution-server scenario (clients →
//!   bounded queue with backpressure/shedding → worker pool) whose
//!   lifecycle marks feed the latency-percentile reporting;
//! * [`probe`] — the write-set-shrinking probe of Fig. 6(a).
//!
//! Every workload is a [`Workload`]: a named source template plus
//! parameters, instantiated for a thread/client count and an optional
//! scale factor. Sources only print *after* joining all threads and
//! combine per-thread results in thread-id order, so output is identical
//! across runtime modes — the serializability oracle used by the
//! integration tests.

pub mod micro;
pub mod npb;
pub mod probe;
pub mod rails;
pub mod taskserver;
pub mod webrick;

/// A runnable benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in reports ("BT", "While", "WEBrick", …).
    pub name: &'static str,
    /// Ruby source, fully instantiated.
    pub source: String,
    /// Worker-thread (or concurrent-client) count baked into the source.
    pub threads: usize,
    /// The work metric: completed requests for server workloads, 0 for
    /// fixed-work benchmarks (which use inverse runtime).
    pub requests: u64,
}

/// Template instantiation: replaces `%THREADS%` and `%SCALE%`.
pub(crate) fn instantiate(
    name: &'static str,
    template: &str,
    threads: usize,
    scale: usize,
    requests: u64,
) -> Workload {
    let source =
        template.replace("%THREADS%", &threads.to_string()).replace("%SCALE%", &scale.to_string());
    Workload { name, source, threads, requests }
}

/// The seven NPB kernels, in the paper's order.
pub fn npb_all(threads: usize, scale: usize) -> Vec<Workload> {
    vec![
        npb::bt(threads, scale),
        npb::cg(threads, scale),
        npb::ft(threads, scale),
        npb::is(threads, scale),
        npb::lu(threads, scale),
        npb::mg(threads, scale),
        npb::sp(threads, scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiation_substitutes() {
        let w = instantiate("X", "n = %THREADS%\ns = %SCALE%", 4, 10, 0);
        assert_eq!(w.source, "n = 4\ns = 10");
        assert_eq!(w.threads, 4);
    }

    #[test]
    fn all_sources_parse() {
        let mut all = vec![
            micro::while_bench(4, 100),
            micro::iterator_bench(4, 100),
            webrick::webrick(4, 20),
            rails::rails(4, 20),
            taskserver::taskserver(4, 2, 8, 32, false),
            taskserver::taskserver(4, 2, 2, 32, true),
        ];
        all.extend(npb_all(4, 1));
        for w in all {
            ruby_lang::parse_program(&w.source).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn all_sources_compile() {
        let mut all = vec![micro::while_bench(2, 10), micro::iterator_bench(2, 10)];
        all.extend(npb_all(2, 1));
        all.push(webrick::webrick(2, 4));
        all.push(rails::rails(2, 4));
        all.push(taskserver::taskserver(2, 2, 4, 8, false));
        for w in all {
            let mut p = ruby_vm::Program::default();
            ruby_vm::compile::compile_source(&w.source, &mut p)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
