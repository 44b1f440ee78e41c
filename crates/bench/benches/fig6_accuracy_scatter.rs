//! **Figure 6** — predicted vs. ground-truth scatter for area, power and
//! timing. Consumes the cross-validation artifact written by
//! `table7_accuracy` if present (to avoid re-training), otherwise runs its
//! own 2-fold cross validation, then renders ASCII log-log scatter plots.

use sns_bench::{bench_train_config, headline, labeled_catalog, out_dir, write_csv};
use sns_core::eval::cross_validate;

struct Point {
    truth: [f64; 3],
    pred: [f64; 3],
}

fn load_cached() -> Option<Vec<Point>> {
    let path = out_dir().join("fig6_scatter.csv");
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 7 {
            return None;
        }
        let v = |i: usize| f[i].parse::<f64>().ok();
        out.push(Point {
            truth: [v(1)?, v(3)?, v(5)?],
            pred: [v(2)?, v(4)?, v(6)?],
        });
    }
    (!out.is_empty()).then_some(out)
}

/// Renders one log-log ASCII scatter with the x = y diagonal.
fn plot(name: &str, unit: &str, pts: &[(f64, f64)]) {
    const W: usize = 48;
    const H: usize = 16;
    let lo = pts
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .fold(f64::INFINITY, f64::min)
        .max(1e-9);
    let hi = pts.iter().flat_map(|&(a, b)| [a, b]).fold(0.0f64, f64::max);
    let (llo, lhi) = (lo.ln(), (hi * 1.01).ln());
    let scale = |v: f64| ((v.ln() - llo) / (lhi - llo)).clamp(0.0, 1.0);
    let mut grid = vec![vec![' '; W]; H];
    // Diagonal.
    for (r, c) in (0..W).map(|c| (H - 1 - (c * (H - 1)) / (W - 1), c)) {
        grid[r][c] = '.';
    }
    for &(truth, pred) in pts {
        let c = (scale(truth) * (W - 1) as f64).round() as usize;
        let r = H - 1 - (scale(pred) * (H - 1) as f64).round() as usize;
        grid[r][c] = 'o';
    }
    println!("\n  {name} — predicted (y) vs ground truth (x), log-log [{unit}]");
    for row in grid {
        println!("  |{}|", row.iter().collect::<String>());
    }
    println!("  (points on the dotted diagonal are perfect predictions)");
}

fn main() {
    headline("Figure 6: SNS prediction accuracy scatter");
    let points = match load_cached() {
        Some(p) => {
            println!("\nusing cached cross-validation artifact from table7_accuracy");
            p
        }
        None => {
            println!("\nno cached artifact — running 2-fold cross validation...");
            let dataset = labeled_catalog();
            let cv = cross_validate(&dataset, &bench_train_config(), 42);
            let rows: Vec<String> = cv
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{},{},{},{},{},{},{}",
                        p.name, p.truth[0], p.pred[0], p.truth[1], p.pred[1], p.truth[2],
                        p.pred[2]
                    )
                })
                .collect();
            write_csv(
                "fig6_scatter.csv",
                "design,timing_truth_ps,timing_pred_ps,area_truth_um2,area_pred_um2,power_truth_mw,power_pred_mw",
                &rows,
            );
            cv.points
                .iter()
                .map(|p| Point { truth: p.truth, pred: p.pred })
                .collect()
        }
    };

    for (d, name, unit) in [(1usize, "Area", "um2"), (2, "Power", "mW"), (0, "Timing", "ps")] {
        let pts: Vec<(f64, f64)> = points.iter().map(|p| (p.truth[d], p.pred[d])).collect();
        plot(name, unit, &pts);
        // Fraction within 2x of the diagonal — the paper's qualitative
        // "few hard-to-predict designs" claim.
        let within: usize = pts
            .iter()
            .filter(|&&(t, p)| p > 0.0 && t > 0.0 && (p / t).max(t / p) < 2.0)
            .count();
        println!("  within 2x of truth: {}/{}", within, pts.len());
    }
}
