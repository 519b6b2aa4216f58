//! The WEBrick HTTP-server model (paper §5.3/§5.5).
//!
//! The real measurement serves 30 000 requests for a 46-byte page from
//! concurrent clients, spawning one Ruby thread per request. What drives
//! the paper's result:
//!
//! * the GIL is **released during I/O**, so even GIL-mode WEBrick gains
//!   17–26 % from request overlap;
//! * request handling is string/regex heavy — the regex engine is a
//!   C-level call with no yield points, so HTM suffers footprint
//!   overflows there, making short transactions (HTM-1) best;
//! * each request allocates aggressively (parsing, header splitting,
//!   response building).
//!
//! Our model keeps all three. One deliberate simplification (DESIGN.md
//! §2): no thread per request but `%THREADS%` persistent workers, one per
//! client, dealt the requests statically (`k += NCLIENTS`): no queue, no
//! Mutex, nothing shared on the request path. Per request a worker does
//! one blocking read (the response write is buffered), parses with
//! regexes, builds the response and formats an access-log line that it
//! drops. Thread-churn allocation is emulated by allocating the
//! per-request state fresh each time.

use crate::{instantiate, Workload};

const WEBRICK_SRC: &str = r#"
NCLIENTS = %THREADS%
NREQUESTS = %SCALE%

REQ_LINE = Regexp.new("GET (/[a-z0-9_/.]*) HTTP/1\\.([01])")
HDR = Regexp.new("([A-Za-z-]+): (.*)")

PATHS = ["/", "/index.html", "/about.html", "/data/list", "/static/app.js"]

def handle_request(req, seq)
  # Parse the request line (regex: the paper's overflow hot spot).
  m = REQ_LINE.match(req[0])
  if m.nil?
    return "HTTP/1.1 400 Bad Request\r\n\r\n"
  end
  path = m[1]
  # Parse every header into a hash, like WEBrick::HTTPRequest does.
  headers = Hash.new()
  i = 1
  n = req.length
  while i < n
    hm = HDR.match(req[i])
    unless hm.nil?
      headers[hm[1].downcase] = hm[2]
    end
    i += 1
  end
  host = headers["host"]
  host = "" if host.nil?
  # Normalize the path (split + rejoin, rejecting dot segments) and
  # unescape it character by character, as WEBrick::HTTPUtils does.
  clean = ""
  path.split("/").each do |seg|
    unless seg.empty?
      if seg != "."
        decoded = ""
        i = 0
        n = seg.length
        while i < n
          ch = seg[i]
          if ch == "+"
            decoded = decoded + " "
          else
            decoded = decoded + ch
          end
          i += 1
        end
        clean = clean + "/" + decoded
      end
    end
  end
  clean = "/" if clean.empty?
  # Build the 46-byte-page response with WEBrick-style headers.
  body = "<html><body>hello " + host + "</body></html>"
  resp = "HTTP/1.1 200 OK\r\n"
  resp = resp + "Server: WEBrick/1.3.1 (Ruby/1.9.3)\r\n"
  resp = resp + "Date: Sat, 15 Feb 2014 00:00:" + (seq % 60).to_s + " GMT\r\n"
  resp = resp + "Content-Type: text/html; charset=utf-8\r\n"
  resp = resp + "Content-Length: " + body.length.to_s + "\r\n"
  resp = resp + "Connection: Keep-Alive\r\n"
  resp = resp + "\r\n" + body
  # Access-log line (WEBrick formats one per request).
  log = host + " - - [" + seq.to_s + "] \"GET " + clean + " HTTP/1.1\" 200 " + body.length.to_s
  if log.length == 0
    resp = ""
  end
  resp
end

served = Array.new(NCLIENTS, 0)
bytes = Array.new(NCLIENTS, 0)
threads = []
NCLIENTS.times do |t|
  threads << Thread.new(t) do |tid|
    count = 0
    total = 0
    k = tid
    while k < NREQUESTS
      # Blocking socket read on the keep-alive connection — the GIL is
      # released here (the response write is buffered and non-blocking).
      io_wait(1)
      path = PATHS[k % 5]
      req = ["GET " + path + " HTTP/1.1",
             "Host: bench.example.com",
             "User-Agent: paper-client/1.0",
             "Accept: text/html"]
      resp = handle_request(req, k)
      count += 1
      total += resp.length
      k += NCLIENTS
    end
    served[tid] = count
    bytes[tid] = total
  end
end
threads.each do |t|
  t.join()
end
total_served = 0
total_bytes = 0
served.each do |c|
  total_served += c
end
bytes.each do |v|
  total_bytes += v
end
puts("served " + total_served.to_s + " bytes " + total_bytes.to_s)
"#;

/// WEBrick model: `clients` concurrent connections, `requests` total.
pub fn webrick(clients: usize, requests: usize) -> Workload {
    let mut w = instantiate("WEBrick", WEBRICK_SRC, clients, requests, requests as u64);
    w.requests = requests as u64;
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_instantiates() {
        let w = webrick(4, 100);
        assert!(w.source.contains("NCLIENTS = 4"));
        assert!(w.source.contains("NREQUESTS = 100"));
        assert_eq!(w.requests, 100);
        ruby_lang::parse_program(&w.source).unwrap();
    }
}
