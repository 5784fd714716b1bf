//! One driver per paper table/figure.
//!
//! Each experiment in the paper's evaluation section maps to a constructor
//! here; the `pmr-bench` regenerator binaries and the integration tests
//! are thin wrappers over these. The per-experiment configurations are the
//! paper's own (see DESIGN.md's experiment index).

use crate::probability::{figure_curves, FigureConfig, FigureCurves, FigureRegime};
use crate::response::{response_table, ResponseTable};
use crate::tables::{distribution_table, render_figure, render_response_table};
use pmr_baselines::gdm::PaperGdmSet;
use pmr_baselines::{GdmDistribution, ModuloDistribution};
use pmr_core::assign::Assignment;
use pmr_core::method::DistributionMethod;
use pmr_core::transform::TransformKind;
use pmr_core::{AssignmentStrategy, FxDistribution, Result, SystemConfig};

/// The reproducible experiments of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experiment {
    /// Table 1: Basic FX on F = (2, 8), M = 4.
    Table1,
    /// Table 2: FX (I, U) vs Modulo on F = (4, 4), M = 16.
    Table2,
    /// Table 3: FX (I, IU1) on F = (4, 4), M = 16.
    Table3,
    /// Table 4: FX (I, U, IU1) on F = (2, 4, 2), M = 8.
    Table4,
    /// Table 5: FX (I, IU2) on F = (8, 2), M = 16.
    Table5,
    /// Table 6: FX (I, U, IU2) on F = (4, 2, 2), M = 16.
    Table6,
    /// Table 7: response sizes, M = 32, F_i = 8 (n = 6).
    Table7,
    /// Table 8: response sizes, M = 64, F_i = 8 (n = 6).
    Table8,
    /// Table 9: response sizes, M = 512, F = (8,8,8,16,16,16).
    Table9,
    /// Figure 1: certified-optimality %, n = 6, pair regime.
    Figure1,
    /// Figure 2: certified-optimality %, n = 10, pair regime.
    Figure2,
    /// Figure 3: certified-optimality %, n = 6, triple regime.
    Figure3,
    /// Figure 4: certified-optimality %, n = 10, triple regime.
    Figure4,
}

impl Experiment {
    /// All experiments, in paper order.
    pub const ALL: [Experiment; 13] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Table3,
        Experiment::Table4,
        Experiment::Table5,
        Experiment::Table6,
        Experiment::Table7,
        Experiment::Table8,
        Experiment::Table9,
        Experiment::Figure1,
        Experiment::Figure2,
        Experiment::Figure3,
        Experiment::Figure4,
    ];

    /// Paper-facing label.
    pub fn label(self) -> &'static str {
        match self {
            Experiment::Table1 => "Table 1",
            Experiment::Table2 => "Table 2",
            Experiment::Table3 => "Table 3",
            Experiment::Table4 => "Table 4",
            Experiment::Table5 => "Table 5",
            Experiment::Table6 => "Table 6",
            Experiment::Table7 => "Table 7",
            Experiment::Table8 => "Table 8",
            Experiment::Table9 => "Table 9",
            Experiment::Figure1 => "Figure 1",
            Experiment::Figure2 => "Figure 2",
            Experiment::Figure3 => "Figure 3",
            Experiment::Figure4 => "Figure 4",
        }
    }
}

/// The `(system, transform kinds)` of one of the worked distribution
/// tables (Tables 1–6).
pub fn distribution_setup(exp: Experiment) -> Result<(SystemConfig, Assignment)> {
    use TransformKind::{Identity as I, Iu1, Iu2, U};
    let (sizes, m, kinds): (&[u64], u64, &[TransformKind]) = match exp {
        Experiment::Table1 => (&[2, 8], 4, &[I, I]),
        Experiment::Table2 => (&[4, 4], 16, &[I, U]),
        Experiment::Table3 => (&[4, 4], 16, &[I, Iu1]),
        Experiment::Table4 => (&[2, 4, 2], 8, &[I, U, Iu1]),
        Experiment::Table5 => (&[8, 2], 16, &[I, Iu2]),
        Experiment::Table6 => (&[4, 2, 2], 16, &[I, U, Iu2]),
        other => panic!("{} is not a distribution table", other.label()),
    };
    let sys = SystemConfig::new(sizes, m)?;
    let assignment = Assignment::from_kinds(&sys, kinds)?;
    Ok((sys, assignment))
}

/// Renders one of Tables 1–6 in the paper's layout. Table 2 carries the
/// paper's extra Modulo column.
pub fn table_distribution(exp: Experiment) -> Result<String> {
    let (sys, assignment) = distribution_setup(exp)?;
    let fx = FxDistribution::with_assignment(assignment);
    let title = format!("{} — {} with FX({})\n", exp.label(), sys, fx.describe());
    let body = if exp == Experiment::Table2 {
        let dm = ModuloDistribution::new(sys.clone());
        let methods: [(&str, &dyn DistributionMethod); 2] = [("FX", &fx), ("Modulo", &dm)];
        distribution_table(&sys, &methods)
    } else {
        let methods: [(&str, &dyn DistributionMethod); 1] = [("FX", &fx)];
        distribution_table(&sys, &methods)
    };
    Ok(title + &body)
}

/// The `(system, FX strategy)` of a response-size table (Tables 7–9).
pub fn response_setup(exp: Experiment) -> Result<(SystemConfig, AssignmentStrategy)> {
    match exp {
        Experiment::Table7 => Ok((
            SystemConfig::new(&[8; 6], 32)?,
            AssignmentStrategy::CycleIu1,
        )),
        Experiment::Table8 => Ok((
            SystemConfig::new(&[8; 6], 64)?,
            AssignmentStrategy::CycleIu1,
        )),
        Experiment::Table9 => Ok((
            SystemConfig::new(&[8, 8, 8, 16, 16, 16], 512)?,
            AssignmentStrategy::CycleIu2,
        )),
        other => panic!("{} is not a response table", other.label()),
    }
}

/// Computes one of Tables 7–9: Modulo, GDM1–3, FX, Optimal, rows
/// k = 2 … 6.
pub fn table_response(exp: Experiment) -> Result<ResponseTable> {
    let (sys, strategy) = response_setup(exp)?;
    let dm = ModuloDistribution::new(sys.clone());
    let gdm1 = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm1);
    let gdm2 = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm2);
    let gdm3 = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm3);
    let fx = FxDistribution::with_strategy(sys.clone(), strategy)?;
    let methods: [&dyn DistributionMethod; 5] = [&dm, &gdm1, &gdm2, &gdm3, &fx];
    let mut table = response_table(&sys, &methods, 2..=sys.num_fields() as u32);
    // Paper column labels.
    table.columns = vec![
        "Modulo".into(),
        "GDM1".into(),
        "GDM2".into(),
        "GDM3".into(),
        "FX".into(),
        "Optimal".into(),
    ];
    Ok(table)
}

/// Renders one of Tables 7–9.
pub fn render_table_response(exp: Experiment) -> Result<String> {
    let (sys, strategy) = response_setup(exp)?;
    let table = table_response(exp)?;
    let title = format!("{} — {} (FX strategy: {strategy})", exp.label(), sys);
    Ok(render_response_table(&table, &title))
}

/// The configuration of a probability figure.
pub fn figure_config(exp: Experiment) -> FigureConfig {
    match exp {
        Experiment::Figure1 => FigureConfig {
            num_fields: 6,
            regime: FigureRegime::PairProductsCover,
        },
        Experiment::Figure2 => FigureConfig {
            num_fields: 10,
            regime: FigureRegime::PairProductsCover,
        },
        Experiment::Figure3 => FigureConfig {
            num_fields: 6,
            regime: FigureRegime::TripleProductsCover,
        },
        Experiment::Figure4 => FigureConfig {
            num_fields: 10,
            regime: FigureRegime::TripleProductsCover,
        },
        other => panic!("{} is not a figure", other.label()),
    }
}

/// Computes one of Figures 1–4 (certified-percentage curves).
pub fn figure(exp: Experiment) -> Result<FigureCurves> {
    figure_curves(&figure_config(exp))
}

/// Renders a figure.
pub fn render_figure_experiment(exp: Experiment) -> Result<String> {
    let config = figure_config(exp);
    let curves = figure(exp)?;
    let regime = match config.regime {
        FigureRegime::PairProductsCover => "FpFq >= M for all small pairs; FX: I,U,IU1",
        FigureRegime::TripleProductsCover => "FpFq < M, FpFqFr >= M for small triples; FX: I,U,IU2",
    };
    let title = format!(
        "{} — % of strict-optimal query patterns, n = {} ({regime})",
        exp.label(),
        config.num_fields
    );
    Ok(render_figure(&curves, &title))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_distribution_tables_render() {
        for exp in [
            Experiment::Table1,
            Experiment::Table2,
            Experiment::Table3,
            Experiment::Table4,
            Experiment::Table5,
            Experiment::Table6,
        ] {
            let s = table_distribution(exp).unwrap();
            assert!(s.contains(exp.label()), "{s}");
            assert!(s.lines().count() > 10);
        }
    }

    /// Golden check for Table 5's rendering: the IU2 rows of the paper.
    #[test]
    fn table_5_rows() {
        let s = table_distribution(Experiment::Table5).unwrap();
        let cell_rows: Vec<Vec<&str>> = s
            .lines()
            .skip(3) // title, header, separator
            .map(|l| l.split_whitespace().collect())
            .collect();
        // Bucket <000,0> → 0, <000,1> → 13, <111,1> → 10 (paper Table 5).
        assert!(cell_rows.contains(&vec!["000", "0", "0"]), "{s}");
        assert!(cell_rows.contains(&vec!["000", "1", "13"]), "{s}");
        assert!(cell_rows.contains(&vec!["111", "1", "10"]), "{s}");
        assert_eq!(cell_rows.len(), 16);
    }

    /// Every figure experiment produces monotone-dominating FX curves.
    #[test]
    fn figures_compute() {
        for exp in [
            Experiment::Figure1,
            Experiment::Figure2,
            Experiment::Figure3,
            Experiment::Figure4,
        ] {
            let curves = figure(exp).unwrap();
            let config = figure_config(exp);
            assert_eq!(curves.l_values.len(), config.num_fields + 1);
            for i in 0..curves.l_values.len() {
                assert!(curves.fd_percent[i] >= curves.md_percent[i] - 1e-9);
            }
        }
    }

    /// Smoke-check a small response table end to end (Table 7 rows are
    /// hand-verified in `response::tests`; here just shape + dominance).
    #[test]
    fn table_7_shape_and_dominance() {
        let table = table_response(Experiment::Table7).unwrap();
        assert_eq!(table.columns.last().unwrap(), "Optimal");
        assert_eq!(table.rows.len(), 5); // k = 2..6
        for row in &table.rows {
            let fx = row.averages[4];
            // FX ≥ optimal, and FX ≤ every other method on Table 7 (the
            // paper: "except for first row of table 8 and 9, FX gives
            // smaller largest-response-size than the other methods").
            assert!(fx + 1e-9 >= row.optimal);
            for other in &row.averages[0..4] {
                assert!(fx <= other + 1e-9, "k = {}: FX {fx} vs {other}", row.k);
            }
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Experiment::Table7.label(), "Table 7");
        assert_eq!(Experiment::ALL.len(), 13);
    }
}
