//! Labelled data series and summary statistics.

/// One line of a figure: y values over shared x values.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| (px - x).abs() < 1e-9).map(|&(_, y)| y)
    }

    /// Normalize every y by the series' own value at `x0` (the paper's
    /// "1 = 1-thread GIL" style normalization uses another series' base —
    /// see [`SeriesSet::normalize_to`]).
    pub fn normalized_to(&self, base: f64) -> Series {
        Series {
            label: self.label.clone(),
            points: self.points.iter().map(|&(x, y)| (x, y / base)).collect(),
        }
    }
}

/// A whole figure panel: several series over the same x axis.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<Series>,
}

impl SeriesSet {
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        SeriesSet {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    pub fn add(&mut self, s: Series) {
        self.series.push(s);
    }

    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Normalize every series to `base_label`'s value at `base_x`
    /// (e.g. GIL at 1 thread → "Throughput (1 = 1 thread GIL)").
    pub fn normalize_to(&self, base_label: &str, base_x: f64) -> SeriesSet {
        let base = self.get(base_label).and_then(|s| s.y_at(base_x)).unwrap_or(1.0);
        SeriesSet {
            title: self.title.clone(),
            x_label: self.x_label.clone(),
            y_label: self.y_label.clone(),
            series: self.series.iter().map(|s| s.normalized_to(base)).collect(),
        }
    }

    /// CSV rendering: header `x,label1,label2,…`, one row per x value.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> =
            self.series.iter().flat_map(|s| s.points.iter().map(|&(x, _)| x)).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut out = String::from("x");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                out.push(',');
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!("{y:.6}")),
                    None => out.push_str(""),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean (0 for empty input; requires positive values).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Series {
        fn max_y(&self) -> f64 {
            self.points.iter().map(|&(_, y)| y).fold(f64::MIN, f64::max)
        }

        fn min_y(&self) -> f64 {
            self.points.iter().map(|&(_, y)| y).fold(f64::MAX, f64::min)
        }
    }

    #[test]
    fn series_lookup_and_extrema() {
        let mut s = Series::new("GIL");
        s.push(1.0, 1.0);
        s.push(2.0, 0.9);
        s.push(4.0, 1.1);
        assert_eq!(s.y_at(2.0), Some(0.9));
        assert_eq!(s.y_at(3.0), None);
        assert!((s.max_y() - 1.1).abs() < 1e-12);
        assert!((s.min_y() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn normalization_to_one_thread_gil() {
        let mut set = SeriesSet::new("BT", "threads", "throughput");
        let mut gil = Series::new("GIL");
        gil.push(1.0, 200.0);
        gil.push(12.0, 190.0);
        let mut htm = Series::new("HTM-dynamic");
        htm.push(1.0, 160.0);
        htm.push(12.0, 700.0);
        set.add(gil);
        set.add(htm);
        let n = set.normalize_to("GIL", 1.0);
        assert!((n.get("GIL").unwrap().y_at(1.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((n.get("HTM-dynamic").unwrap().y_at(12.0).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn csv_shape() {
        let mut set = SeriesSet::new("t", "x", "y");
        let mut a = Series::new("A");
        a.push(1.0, 2.0);
        a.push(2.0, 3.0);
        set.add(a);
        let csv = set.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,A");
        assert!(lines[1].starts_with("1,2.0"));
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.6]) - 3.6).abs() < 1e-12);
    }
}
