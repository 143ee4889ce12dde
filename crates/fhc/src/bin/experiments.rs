//! Reproduce the paper's tables and figures.
//!
//! ```text
//! experiments [--scale 0.25] [--seed 42] [--trees 80] [--grid] [--only <name>]
//!             [--backend scan|indexed] [--threads N]
//! ```
//!
//! `--scale` shrinks the corpus (1.0 = the paper's ≈5333 samples; the
//! similarity matrix is quadratic in corpus size, so small machines should
//! use 0.1–0.3). `--only` runs a single experiment: one of `table1`,
//! `figure2`, `table2`, `table3`, `table4`, `table5`, `figure3`, `ablation`,
//! `baselines`.
//!
//! The runtime layers of [`FhcConfig`] are reachable from the command line:
//! `--backend` selects the similarity backend that scores every feature
//! matrix (`scan` or `indexed`), and `--threads`
//! pins the training-batch *and* serving parallelism to N worker threads
//! (default: all hardware threads). Neither changes a single score — only
//! how fast the identical numbers are produced.
//!
//! `remote:EP[,EP...]` and `gateway:EP` parse but are rejected here: the
//! experiments driver *trains* from scratch, and training builds backends
//! over intermediate reference sets (the threshold-tuning inner fits use
//! subsets) that can never match a running `fhc-shardd`'s or
//! `fhc-gateway`'s artifact fingerprint. Both are serving-time topologies —
//! save an artifact and open it with `TrainedClassifier::load_with`.

use corpus::{Catalog, CorpusBuilder};
use fhc::ablation::run_ablation;
use fhc::backend::BackendConfig;
use fhc::baselines::run_baselines;
use fhc::config::FhcConfig;
use fhc::experiments as exp;
use fhc::pipeline::{FuzzyHashClassifier, PipelineConfig};
use fhc::serving::ServingConfig;
use hpcutil::SectionTimer;
use mlcore::gridsearch::ParamGrid;
use mlcore::tree::MaxFeatures;
use std::process::ExitCode;

struct Args {
    scale: f64,
    seed: u64,
    trees: usize,
    grid: bool,
    only: Option<String>,
    backend: BackendConfig,
    threads: usize,
}

const USAGE: &str = "usage: experiments [--scale F] [--seed N] [--trees N] [--grid] \
     [--only NAME] [--backend scan|indexed] [--threads N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 0.25,
        seed: 42,
        trees: 80,
        grid: false,
        only: None,
        backend: BackendConfig::default(),
        threads: 0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                args.scale = iter
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --scale: {e}"))?;
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--trees" => {
                args.trees = iter
                    .next()
                    .ok_or("--trees needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --trees: {e}"))?;
            }
            "--grid" => args.grid = true,
            "--only" => args.only = Some(iter.next().ok_or("--only needs a value")?),
            "--backend" => {
                args.backend = iter
                    .next()
                    .ok_or("--backend needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --backend: {e}"))?;
                if matches!(args.backend, BackendConfig::Fleet { .. }) {
                    return Err("--backend remote:..., gateway:... and fleet:... are \
                         serving-time topologies: the experiments driver trains from scratch, and \
                         training builds backends over intermediate reference sets \
                         (threshold-tuning inner fits use subsets) that cannot match \
                         a running fhc-shardd's or fhc-gateway's artifact \
                         fingerprint. Train and save an artifact, start the daemons \
                         on it, then open it with TrainedClassifier::load_with. Use \
                         scan or indexed here."
                        .to_string());
                }
            }
            "--threads" => {
                args.threads = iter
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn wants(only: &Option<String>, name: &str) -> bool {
    only.as_deref().map(|o| o == name).unwrap_or(true)
}

fn heading(title: &str) -> String {
    format!("\n==================== {title} ====================\n")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut timer = SectionTimer::new();
    println!(
        "Fuzzy Hash Classifier experiments (scale={}, seed={}, trees={}, grid={}, \
         backend={}, threads={})",
        args.scale,
        args.seed,
        args.trees,
        args.grid,
        args.backend,
        if args.threads == 0 {
            "auto".to_string()
        } else {
            args.threads.to_string()
        }
    );

    timer.start("corpus generation");
    let catalog = Catalog::paper().scaled(args.scale);
    let corpus = CorpusBuilder::new(args.seed).build(&catalog);
    println!(
        "corpus: {} classes, {} samples (paper: 92 classes, 5333 samples)",
        corpus.n_classes(),
        corpus.n_samples()
    );

    // Static corpus experiments first: they need no training.
    if wants(&args.only, "table1") {
        println!(
            "{}",
            heading("Table 1: Versions and Executables for the Velvet Application")
        );
        println!("{}", exp::table1_velvet_versions(&corpus));
    }
    if wants(&args.only, "figure2") {
        println!(
            "{}",
            heading("Figure 2: Number of samples per application class")
        );
        println!("{}", exp::figure2_sample_distribution(&corpus));
    }

    let mut config = FhcConfig::new()
        .pipeline(PipelineConfig {
            seed: args.seed,
            ..Default::default()
        })
        .backend(args.backend.clone());
    config.pipeline.forest.n_estimators = args.trees;
    // --threads pins both runtime parallelism layers; 0 keeps the defaults
    // (all hardware threads with the layers' preferred chunking).
    if args.threads > 0 {
        config.parallel.threads = args.threads;
        config.serving = ServingConfig {
            threads: args.threads,
            ..config.serving
        };
    }
    if args.grid {
        config.pipeline.grid = Some(ParamGrid {
            n_estimators: vec![args.trees / 2, args.trees],
            max_depth: vec![None, Some(24)],
            min_samples_leaf: vec![1, 2],
            max_features: vec![MaxFeatures::Sqrt],
            ..Default::default()
        });
    }

    timer.start("feature extraction");
    let classifier = FuzzyHashClassifier::with_config(config.clone());
    let features = classifier.extract_features(&corpus);

    if wants(&args.only, "table2") {
        println!("{}", heading("Table 2: Hash Similarity Example"));
        println!(
            "{}",
            exp::table2_hash_similarity_example(&corpus, &features, "OpenMalaria")
        );
    }

    timer.start("pipeline (split, grid search, threshold tuning, training, prediction)");
    let outcome = match classifier.run_with_features(&corpus, &features) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{}", heading("Headline results"));
    println!("{}", exp::headline_summary(&outcome));

    if wants(&args.only, "table3") {
        println!("{}", heading("Table 3: Class of Unknown Samples"));
        println!("{}", exp::table3_unknown_classes(&corpus, &outcome));
    }
    if wants(&args.only, "table4") {
        println!("{}", heading("Table 4: Classification Report"));
        println!("{}", exp::table4_classification_report(&outcome));
    }
    if wants(&args.only, "table5") {
        println!("{}", heading("Table 5: Feature Importance (normalized)"));
        println!("{}", exp::table5_feature_importance(&outcome));
    }
    if wants(&args.only, "figure3") {
        println!(
            "{}",
            heading("Figure 3: f1-score over confidence threshold (training-set grid search)")
        );
        println!("{}", exp::figure3_threshold_curve(&outcome));
    }

    if wants(&args.only, "baselines") {
        timer.start("baselines");
        println!(
            "{}",
            heading("Baselines: exact SHA-256 match, k-NN, Gaussian naive Bayes")
        );
        match run_baselines(&corpus, &features, &config, outcome.confidence_threshold) {
            Ok(results) => println!("{}", exp::baseline_table(&results, &outcome)),
            Err(e) => eprintln!("baselines failed: {e}"),
        }
    }

    if wants(&args.only, "ablation") {
        timer.start("ablation");
        println!("{}", heading("Ablation: feature subsets"));
        match run_ablation(&corpus, &features, &config) {
            Ok(results) => println!("{}", exp::ablation_table(&results)),
            Err(e) => eprintln!("ablation failed: {e}"),
        }
    }

    timer.stop();
    println!("{}", heading("Timing"));
    println!("{}", timer.summary());
    ExitCode::SUCCESS
}
