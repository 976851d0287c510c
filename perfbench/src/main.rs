//! `greem-perfbench`: runs one workload of the TreePM stack for a time
//! budget, checks its outputs, and prints one JSON line with the host
//! facts, the checks, the exact work counts and the metrics.
//!
//! ```text
//! greem-perfbench --workload <pp_clustered|pm_uniform|ranks_cosmo>
//!                 --seed <n> --seconds <s> [--layers]
//! ```
//!
//! Without `--layers` it reports the end-to-end metrics; with it, the
//! per-layer metrics (build with the `record` feature for the traced
//! run). `perfbench/run.py` builds both binaries and wraps this line
//! into the benchmark's result.

mod checks;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;

use stats::{median, num, string, Metrics};
use workloads::{Run, Workload, N};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    layers: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut layers) = (None, None, None, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--layers" => layers = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        layers,
    })
}

/// Facts about the host and build that change what a run measures.
struct Host {
    nproc: usize,
    rayon_threads: usize,
    rank_threads: usize,
    kernel: &'static str,
    record: bool,
    autotune_env: Option<String>,
    kernel_env: Option<String>,
}

impl Host {
    fn detect(w: Workload) -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            rank_threads: w.rank_threads(),
            kernel: greem_kernels::selected_variant().name(),
            record: cfg!(feature = "record"),
            autotune_env: std::env::var("GREEM_PP_AUTOTUNE").ok(),
            kernel_env: std::env::var("GREEM_PP_KERNEL").ok(),
        }
    }

    /// Refuse settings that silently change the workload: the ⟨Ni⟩
    /// auto-tuner (it feeds wall-clock cost back into the group size) and
    /// more busy threads than cores.
    fn validate(&self) -> Result<(), String> {
        if let Some(v) = &self.autotune_env {
            return Err(format!("GREEM_PP_AUTOTUNE is set ('{v}'); unset it"));
        }
        let threads = self.rank_threads * self.rayon_threads;
        if threads > self.nproc {
            return Err(format!(
                "thread budget {} rank threads x {} rayon threads exceeds nproc = {} \
                 (set RAYON_NUM_THREADS)",
                self.rank_threads, self.rayon_threads, self.nproc
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> String {
        let opt = |v: &Option<String>| v.as_deref().map_or("null".into(), string);
        format!(
            "{{\"nproc\": {}, \"rayon_threads\": {}, \"rank_threads\": {}, \"kernel\": \"{}\", \
             \"record\": {}, \"GREEM_PP_AUTOTUNE\": {}, \"GREEM_PP_KERNEL\": {}}}",
            self.nproc,
            self.rayon_threads,
            self.rank_threads,
            self.kernel,
            self.record,
            opt(&self.autotune_env),
            opt(&self.kernel_env)
        )
    }
}

/// The end-to-end metrics (`peak_rss_mb` is measured by `run.py`, from
/// outside the process).
fn end_to_end(run: &Run, force_err: f64) -> Metrics {
    let mut m = Metrics::default();
    let wall: f64 = run.step_secs.iter().sum();
    m.put(
        "particle_steps_per_s",
        N as f64 * run.step_secs.len() as f64 / wall,
        "1/s",
    );
    m.put("step_ms_p50", median(&run.step_secs) * 1e3, "ms");
    m.put("setup_s", median(&run.setup_secs), "s");
    m.put("force_err_p99", force_err, "ratio");
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("greem-perfbench: {e}");
            eprintln!(
                "usage: greem-perfbench --workload <pp_clustered|pm_uniform|ranks_cosmo> \
                 --seed <n> --seconds <s> [--layers]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let host = Host::detect(w);
    if let Err(e) = host.validate() {
        eprintln!("greem-perfbench: {e}");
        return ExitCode::from(3);
    }

    let run = workloads::run(w, args.seed, args.seconds, args.layers);
    let err = checks::force_err_p99(&w.config(), &run.last);
    let mut checks = run.checks.clone();
    checks.push(checks::Check {
        name: "force_err_p99",
        value: err,
        limit: w.force_err_gate(),
    });
    let metrics = if args.layers {
        layers::measure(w, &run)
    } else {
        end_to_end(&run, err)
    };

    // The worst value of each check over the run's episodes.
    let mut worst: Vec<checks::Check> = Vec::new();
    for c in checks {
        match worst.iter_mut().find(|x| x.name == c.name) {
            Some(x) => {
                if c.value.is_nan() || c.value > x.value {
                    x.value = c.value;
                }
            }
            None => worst.push(c),
        }
    }
    let correct = worst.iter().all(|c| c.passed());
    let attempted = run.step_secs.len();
    let failed = if correct { 0 } else { attempted };
    let checks_json: Vec<String> = worst
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": \"{}\", \"value\": {}, \"limit\": {}, \"passed\": {}}}",
                c.name,
                num(c.value),
                num(c.limit),
                c.passed()
            )
        })
        .collect();
    let k = &run.counts;
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"checks\": [{}], \
         \"counts\": {{\"steps\": {}, \"interactions\": {}, \"replays\": {}, \"messages\": {}, \
         \"bytes\": {}, \"modeled_s\": {}}}, \"result\": {{\"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}}}",
        w.name(),
        args.seed,
        host.to_json(),
        checks_json.join(", "),
        k.steps,
        k.interactions,
        k.replays,
        k.messages,
        k.bytes,
        num(k.modeled_s),
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
