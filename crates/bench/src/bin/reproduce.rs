//! `reproduce` — regenerate the tables and figures of the paper's evaluation.
//!
//! ```text
//! reproduce [experiment] [--scale small|medium|paper]
//!
//! experiment: table3 | table4 | fig3 | fig4 | fig5 | fig6 | fig7
//!           | table5 | fig8 | fig9 | fig10 | all   (default: all)
//! ```
//!
//! The `small` scale (default) finishes in well under a minute. `medium`
//! takes about half an hour: fig4 ~13 min, table4 ~11 min and fig3 ~4 min,
//! run one after another in a release build on a 2-core x86-64 VM, nearly
//! all of it in the 10k-tuple cross-product mutants. `paper` approaches the
//! paper's sizes (100k-tuple course instances) and does not finish.

use ratest_bench::render::*;
use ratest_bench::*;
use ratest_userstudy::{
    render_figure10, render_figure8, render_figure9, render_table5, simulate, StudyConfig,
};

struct Scale {
    table3_sizes: Vec<usize>,
    table4_tuples: usize,
    fig_sizes: Vec<usize>,
    mutations: usize,
    tpch_sf: f64,
}

fn scale(name: &str) -> Scale {
    match name {
        "paper" => Scale {
            table3_sizes: vec![1_000, 4_000, 10_000, 40_000, 100_000],
            table4_tuples: 100_000,
            fig_sizes: vec![1_000, 4_000, 10_000, 40_000, 100_000],
            mutations: DEFAULT_MUTATIONS_PER_QUESTION,
            tpch_sf: 0.01,
        },
        "medium" => Scale {
            table3_sizes: vec![1_000, 4_000, 10_000],
            table4_tuples: 10_000,
            fig_sizes: vec![1_000, 4_000, 10_000],
            mutations: 4,
            tpch_sf: 0.003,
        },
        _ => Scale {
            table3_sizes: vec![200, 500, 1_000],
            table4_tuples: 500,
            fig_sizes: vec![200, 500, 1_000],
            mutations: 3,
            tpch_sf: 0.001,
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_owned();
    let mut scale_name = "small".to_owned();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                if let Some(s) = it.next() {
                    scale_name = s.clone();
                }
            }
            other => experiment = other.to_owned(),
        }
    }
    let s = scale(&scale_name);
    let seed = 2019;
    let run_all = experiment == "all";
    println!("# RATest-rs experiment reproduction (scale: {scale_name})\n");

    if run_all || experiment == "table3" {
        println!(
            "{}",
            render_table3(&table3(&s.table3_sizes, s.mutations, seed))
        );
    }
    if run_all || experiment == "table4" {
        println!(
            "{}",
            render_table4(&table4(s.table4_tuples, s.mutations.min(3), seed))
        );
    }
    if run_all || experiment == "fig3" {
        println!(
            "{}",
            render_fig3(&fig3(s.table4_tuples, s.mutations.min(3), seed))
        );
    }
    if run_all || experiment == "fig4" {
        println!(
            "{}",
            render_fig4(&fig4(&s.fig_sizes, s.mutations.min(2), seed))
        );
    }
    if run_all || experiment == "fig5" {
        println!(
            "{}",
            render_fig5(&fig5(s.table4_tuples, s.mutations.min(3), seed))
        );
    }
    if run_all || experiment == "fig6" {
        println!("{}", render_fig6(&fig6(s.tpch_sf, seed)));
    }
    if run_all || experiment == "fig7" {
        println!("{}", render_fig7(&fig7(s.tpch_sf, seed)));
    }
    let study = simulate(&StudyConfig::default());
    if run_all || experiment == "fig8" {
        println!("{}", render_figure8(&study));
    }
    if run_all || experiment == "table5" {
        println!("{}", render_table5(&study));
    }
    if run_all || experiment == "fig9" {
        println!("{}", render_figure9(&study));
    }
    if run_all || experiment == "fig10" {
        println!("{}", render_figure10(&study));
    }
}
