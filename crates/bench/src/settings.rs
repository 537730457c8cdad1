//! Command-line settings shared by every experiment binary.

use std::path::{Path, PathBuf};

/// Settings parsed from the command line.
///
/// ```text
/// --scale <f64>    dataset scale factor relative to the real benchmarks (default 0.01)
/// --epochs <n>     training epochs per run (default 20)
/// --dim <n>        embedding dimension (default 32)
/// --seed <n>       master seed (default 0)
/// --out <dir>      output directory for TSV results (default results)
/// --eval-max <n>   cap on evaluated test triples (default: all)
/// --threads <n>    training shards and eval worker threads (default:
///                  NSC_SHARDS for training, available parallelism for eval)
/// --checkpoint-every <n>  save a training checkpoint every n epochs
///                  (default 0 = off; files land in --checkpoint-dir)
/// --checkpoint-dir <dir>  where per-run checkpoints are written
///                  (default <out>/checkpoints)
/// --resume <path>  resume interrupted runs: a checkpoint file (single-run
///                  binaries) or a directory of per-run checkpoints (grids);
///                  runs without a matching checkpoint start fresh
/// --metrics-out <file>  append the metrics-registry exposition (phase
///                  timers, epoch gauges) after each run, one `# run <label>`
///                  section per run (default: off; the TSV output is
///                  unaffected either way)
/// --smoke          tiny configuration used by CI / integration tests
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentSettings {
    /// Dataset scale factor in `(0, 1]`.
    pub scale: f64,
    /// Training epochs per run.
    pub epochs: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for TSV files.
    pub out_dir: PathBuf,
    /// Cap on evaluated test triples (None = all).
    pub eval_max: Option<usize>,
    /// Worker count threaded into `TrainConfig::shards` and
    /// `EvalProtocol::threads` (None = each component's own default).
    pub threads: Option<usize>,
    /// Smoke mode: shrink everything so the binary finishes in seconds.
    pub smoke: bool,
    /// Run grid experiments on these dataset families (comma-separated
    /// `--datasets wn18,fb15k237`); None = the experiment's default.
    pub datasets: Option<Vec<String>>,
    /// Run grid experiments with these scoring functions (comma-separated
    /// `--models TransE,ComplEx`); None = the experiment's default.
    pub models: Option<Vec<String>>,
    /// Save a checkpoint every this many epochs (0 = never).
    pub checkpoint_every: usize,
    /// Directory for per-run checkpoint files (None = `<out>/checkpoints`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume source: a checkpoint file or a directory of per-run
    /// checkpoints (None = always start fresh).
    pub resume: Option<PathBuf>,
    /// Append the metrics exposition here after each run (None = off).
    pub metrics_out: Option<PathBuf>,
}

impl Default for ExperimentSettings {
    fn default() -> Self {
        Self {
            scale: 0.01,
            epochs: 20,
            dim: 32,
            seed: 0,
            out_dir: PathBuf::from("results"),
            eval_max: None,
            threads: None,
            smoke: false,
            datasets: None,
            models: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: None,
            metrics_out: None,
        }
    }
}

impl ExperimentSettings {
    /// Parse from an explicit argument list (without the program name).
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut settings = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let mut next_value = |flag: &str| -> Result<String, String> {
                iter.next()
                    .map(|v| v.as_ref().to_owned())
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match arg {
                "--scale" => {
                    settings.scale = next_value(arg)?
                        .parse()
                        .map_err(|e| format!("invalid --scale: {e}"))?
                }
                "--epochs" => {
                    settings.epochs = next_value(arg)?
                        .parse()
                        .map_err(|e| format!("invalid --epochs: {e}"))?
                }
                "--dim" => {
                    settings.dim = next_value(arg)?
                        .parse()
                        .map_err(|e| format!("invalid --dim: {e}"))?
                }
                "--seed" => {
                    settings.seed = next_value(arg)?
                        .parse()
                        .map_err(|e| format!("invalid --seed: {e}"))?
                }
                "--out" => settings.out_dir = PathBuf::from(next_value(arg)?),
                "--eval-max" => {
                    settings.eval_max = Some(
                        next_value(arg)?
                            .parse()
                            .map_err(|e| format!("invalid --eval-max: {e}"))?,
                    )
                }
                "--threads" => {
                    let threads: usize = next_value(arg)?
                        .parse()
                        .map_err(|e| format!("invalid --threads: {e}"))?;
                    if threads == 0 {
                        return Err("--threads must be positive".to_owned());
                    }
                    settings.threads = Some(threads);
                }
                "--datasets" => {
                    let valid = nscaching_datagen::BenchmarkFamily::ALL.map(|f| f.name());
                    settings.datasets = Some(parse_names(arg, &next_value(arg)?, &valid)?)
                }
                "--models" => {
                    let valid = nscaching_models::ModelKind::ALL.map(|m| m.name());
                    settings.models = Some(parse_names(arg, &next_value(arg)?, &valid)?)
                }
                "--checkpoint-every" => {
                    settings.checkpoint_every = next_value(arg)?
                        .parse()
                        .map_err(|e| format!("invalid --checkpoint-every: {e}"))?
                }
                "--checkpoint-dir" => {
                    settings.checkpoint_dir = Some(PathBuf::from(next_value(arg)?))
                }
                "--resume" => settings.resume = Some(PathBuf::from(next_value(arg)?)),
                "--metrics-out" => settings.metrics_out = Some(PathBuf::from(next_value(arg)?)),
                "--smoke" => settings.smoke = true,
                "--help" | "-h" => return Err(Self::usage().to_owned()),
                other => return Err(format!("unknown argument {other}\n{}", Self::usage())),
            }
        }
        if settings.smoke {
            settings.apply_smoke();
        }
        if !(settings.scale > 0.0 && settings.scale <= 1.0) {
            return Err("--scale must be in (0, 1]".to_owned());
        }
        if settings.epochs == 0 || settings.dim == 0 {
            return Err("--epochs and --dim must be positive".to_owned());
        }
        Ok(settings)
    }

    /// Parse from `std::env::args()`, printing usage and exiting on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(s) => s,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }

    fn apply_smoke(&mut self) {
        self.scale = self.scale.min(0.004);
        self.epochs = self.epochs.min(3);
        self.dim = self.dim.min(12);
        self.eval_max = Some(self.eval_max.unwrap_or(40).min(40));
    }

    /// Usage string shown for `--help` and argument errors.
    pub fn usage() -> &'static str {
        "usage: <experiment> [--scale F] [--epochs N] [--dim N] [--seed N] [--out DIR] \
         [--eval-max N] [--threads N] \
         [--datasets a,b] [--models A,B] \
         [--checkpoint-every N] [--checkpoint-dir DIR] [--resume PATH] \
         [--metrics-out FILE] [--smoke]"
    }

    /// Directory where per-run checkpoints are written.
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.checkpoint_dir
            .clone()
            .unwrap_or_else(|| self.out_dir.join("checkpoints"))
    }

    /// The benchmark families `--datasets` names, in
    /// [`BenchmarkFamily::ALL`](nscaching_datagen::BenchmarkFamily::ALL)
    /// order, or the binary's `default` list when the flag is absent.
    pub fn select_families(
        &self,
        default: Vec<nscaching_datagen::BenchmarkFamily>,
    ) -> Vec<nscaching_datagen::BenchmarkFamily> {
        match &self.datasets {
            None => default,
            Some(wanted) => nscaching_datagen::BenchmarkFamily::ALL
                .into_iter()
                .filter(|f| wanted.iter().any(|w| w == f.name()))
                .collect(),
        }
    }

    /// The scoring functions `--models` names, in
    /// [`ModelKind::ALL`](nscaching_models::ModelKind::ALL) order, or the
    /// binary's `default` list when the flag is absent.
    pub fn select_models(
        &self,
        default: Vec<nscaching_models::ModelKind>,
    ) -> Vec<nscaching_models::ModelKind> {
        match &self.models {
            None => default,
            Some(wanted) => nscaching_models::ModelKind::ALL
                .into_iter()
                .filter(|m| wanted.iter().any(|w| w == &m.name().to_lowercase()))
                .collect(),
        }
    }

    /// `model`, the one scoring function a binary runs whatever `--models`
    /// names. The flag is still accepted (so `run_all --models ...` can
    /// forward it to every binary), and [`note_ignored`](Self::note_ignored)
    /// says on stderr that this binary ignores it.
    pub fn fixed_model(&self, model: nscaching_models::ModelKind) -> nscaching_models::ModelKind {
        self.note_ignored("--models", &format!("{} only", model.name()));
        model
    }

    /// `family`, the one benchmark analogue a binary runs whatever
    /// `--datasets` names; see [`fixed_model`](Self::fixed_model).
    pub fn fixed_family(
        &self,
        family: nscaching_datagen::BenchmarkFamily,
    ) -> nscaching_datagen::BenchmarkFamily {
        self.note_ignored("--datasets", &format!("{} only", family.name()));
        family
    }

    /// Print one stderr line, prefixed with the binary's name, when `flag`
    /// (`--models` or `--datasets`) was given to a binary that does not read
    /// it; `runs` names what the binary runs instead.
    pub fn note_ignored(&self, flag: &str, runs: &str) {
        if let Some(note) = self.ignored_note(flag, runs) {
            let binary = std::env::args()
                .next()
                .and_then(|arg| {
                    Path::new(&arg)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                })
                .unwrap_or_default();
            eprintln!("{binary}: {note}");
        }
    }

    /// The line [`note_ignored`](Self::note_ignored) prints, or `None` when
    /// `flag` was not given.
    fn ignored_note(&self, flag: &str, runs: &str) -> Option<String> {
        let names = match flag {
            "--models" => &self.models,
            "--datasets" => &self.datasets,
            other => panic!("{other} is not a run filter"),
        }
        .as_ref()?;
        Some(format!(
            "ignoring {flag} {}: this experiment runs {runs}",
            names.join(",")
        ))
    }

    /// Path of the TSV output file for an experiment name.
    pub fn results_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}.tsv"))
    }

    /// Ensure the output directory exists.
    pub fn ensure_out_dir(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.out_dir)
    }

    /// Output directory as a path.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }
}

/// Split a comma-separated `flag` value into trimmed lowercase names,
/// refusing any name that is not one of `valid` (compared lowercased), and
/// a value that names nothing, so a typo fails instead of filtering every
/// run away.
fn parse_names(flag: &str, value: &str, valid: &[&str]) -> Result<Vec<String>, String> {
    let names: Vec<String> = value
        .split(',')
        .map(|s| s.trim().to_lowercase())
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        return Err(format!(
            "{flag} {value:?} names nothing; valid names: {}",
            valid.join(", ")
        ));
    }
    match names
        .iter()
        .find(|n| !valid.iter().any(|v| v.to_lowercase() == **n))
    {
        Some(unknown) => Err(format!(
            "unknown {flag} name {unknown:?}; valid names: {}",
            valid.join(", ")
        )),
        None => Ok(names),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = ExperimentSettings::default();
        assert!(s.scale > 0.0 && s.scale <= 1.0);
        assert!(s.epochs > 0);
        assert!(!s.smoke);
    }

    #[test]
    fn parse_overrides_every_field() {
        let s = ExperimentSettings::parse([
            "--scale",
            "0.05",
            "--epochs",
            "7",
            "--dim",
            "24",
            "--seed",
            "9",
            "--out",
            "tmpout",
            "--eval-max",
            "100",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(s.scale, 0.05);
        assert_eq!(s.epochs, 7);
        assert_eq!(s.dim, 24);
        assert_eq!(s.seed, 9);
        assert_eq!(s.out_dir, PathBuf::from("tmpout"));
        assert_eq!(s.eval_max, Some(100));
        assert_eq!(s.threads, Some(4));
    }

    #[test]
    fn smoke_mode_shrinks_the_configuration() {
        let s = ExperimentSettings::parse(["--epochs", "50", "--smoke"]).unwrap();
        assert!(s.smoke);
        assert!(s.epochs <= 3);
        assert!(s.scale <= 0.004);
        assert!(s.eval_max.unwrap() <= 40);
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        assert!(ExperimentSettings::parse(["--scale", "2.0"]).is_err());
        assert!(ExperimentSettings::parse(["--bogus"]).is_err());
        assert!(ExperimentSettings::parse(["--epochs"]).is_err());
        assert!(ExperimentSettings::parse(["--epochs", "0"]).is_err());
        assert!(ExperimentSettings::parse(["--threads", "0"]).is_err());
        assert!(ExperimentSettings::parse(["--threads", "x"]).is_err());
    }

    #[test]
    fn results_path_joins_out_dir() {
        let s = ExperimentSettings::parse(["--out", "x"]).unwrap();
        assert_eq!(s.results_path("table4"), PathBuf::from("x/table4.tsv"));
    }

    #[test]
    fn checkpoint_flags_parse_and_default() {
        let s = ExperimentSettings::parse([
            "--checkpoint-every",
            "5",
            "--resume",
            "ckpts/run.ckpt",
            "--out",
            "o",
        ])
        .unwrap();
        assert_eq!(s.checkpoint_every, 5);
        assert_eq!(s.resume, Some(PathBuf::from("ckpts/run.ckpt")));
        assert_eq!(s.checkpoint_dir(), PathBuf::from("o/checkpoints"));
        let s = ExperimentSettings::parse(["--checkpoint-dir", "elsewhere"]).unwrap();
        assert_eq!(s.checkpoint_dir(), PathBuf::from("elsewhere"));
        assert_eq!(s.checkpoint_every, 0, "checkpointing defaults to off");
        assert!(s.resume.is_none());
        assert!(ExperimentSettings::parse(["--checkpoint-every", "x"]).is_err());
        assert!(ExperimentSettings::parse(["--resume"]).is_err());
    }

    #[test]
    fn metrics_out_parses_and_defaults_to_off() {
        let s = ExperimentSettings::parse(["--metrics-out", "o/metrics.txt"]).unwrap();
        assert_eq!(s.metrics_out, Some(PathBuf::from("o/metrics.txt")));
        assert!(ExperimentSettings::default().metrics_out.is_none());
        assert!(ExperimentSettings::parse(["--metrics-out"]).is_err());
    }
}

#[cfg(test)]
mod filter_tests {
    use super::*;
    use nscaching_datagen::BenchmarkFamily;
    use nscaching_models::ModelKind;

    #[test]
    fn dataset_and_model_filters_select_subsets() {
        let s = ExperimentSettings::parse([
            "--datasets",
            "wn18,fb15k237",
            "--models",
            "transe,ComplEx",
        ])
        .unwrap();
        let families = s.select_families(BenchmarkFamily::ALL.to_vec());
        assert_eq!(
            families,
            vec![BenchmarkFamily::Wn18, BenchmarkFamily::Fb15k237]
        );
        let models = s.select_models(ModelKind::ALL.to_vec());
        assert_eq!(models, vec![ModelKind::TransE, ModelKind::ComplEx]);
    }

    #[test]
    fn named_runs_outside_the_default_list_are_selected() {
        // The smoke defaults of exp_table4 and exp_table5.
        let s = ExperimentSettings::parse(["--smoke", "--models", "distmult"]).unwrap();
        assert_eq!(
            s.select_models(vec![ModelKind::TransE]),
            vec![ModelKind::DistMult]
        );
        let s = ExperimentSettings::parse(["--smoke", "--datasets", "fb15k"]).unwrap();
        assert_eq!(
            s.select_families(vec![BenchmarkFamily::Wn18rr]),
            vec![BenchmarkFamily::Fb15k]
        );
    }

    #[test]
    fn a_value_that_names_nothing_is_refused() {
        for flag in ["--models", "--datasets"] {
            for value in [",", "", " , "] {
                let err = ExperimentSettings::parse([flag, value]).unwrap_err();
                assert!(err.contains("names nothing"), "{flag} {value:?}: {err}");
            }
        }
    }

    #[test]
    fn no_filter_keeps_the_default() {
        let s = ExperimentSettings::default();
        assert_eq!(s.select_families(BenchmarkFamily::ALL.to_vec()).len(), 4);
        assert_eq!(s.select_models(ModelKind::ALL.to_vec()).len(), 5);
    }

    #[test]
    fn a_binary_with_a_fixed_run_names_the_flag_it_ignores() {
        let s = ExperimentSettings::parse(["--smoke", "--models", "transe,ComplEx"]).unwrap();
        assert_eq!(s.fixed_model(ModelKind::TransD), ModelKind::TransD);
        assert_eq!(
            s.ignored_note("--models", "TransD only").as_deref(),
            Some("ignoring --models transe,complex: this experiment runs TransD only")
        );
        assert_eq!(s.ignored_note("--datasets", "wn18 only"), None);
        let s = ExperimentSettings::parse(["--datasets", "fb15k"]).unwrap();
        assert_eq!(s.fixed_family(BenchmarkFamily::Wn18), BenchmarkFamily::Wn18);
        assert_eq!(
            s.ignored_note("--datasets", "wn18 only").as_deref(),
            Some("ignoring --datasets fb15k: this experiment runs wn18 only")
        );
        assert_eq!(s.ignored_note("--models", "TransD only"), None);
        // Without either flag nothing is printed.
        let s = ExperimentSettings::default();
        assert_eq!(s.ignored_note("--models", "TransD only"), None);
        assert_eq!(s.ignored_note("--datasets", "wn18 only"), None);
    }

    #[test]
    fn unknown_names_are_refused_with_the_valid_ones_listed() {
        for models in ["transe,transf", "TransR", "rescal"] {
            let err = ExperimentSettings::parse(["--models", models]).unwrap_err();
            assert!(
                err.contains("TransE, TransH, TransD, DistMult, ComplEx"),
                "{err}"
            );
        }
        let err = ExperimentSettings::parse(["--datasets", "wn18,wn18rrr"]).unwrap_err();
        assert!(err.contains("\"wn18rrr\""), "{err}");
        assert!(err.contains("wn18, wn18rr, fb15k, fb15k237"), "{err}");
    }
}
