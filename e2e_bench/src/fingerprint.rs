//! The machine fingerprint printed with every result: numbers from two
//! machines, toolchains or codegen settings cannot be compared.

/// Where and how a result was measured.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub target_cpu_native: bool,
    pub threads: usize,
}

impl Fingerprint {
    pub fn take(threads: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: env!("E2E_RUSTC_VERSION"),
            target_cpu_native: env!("E2E_RUSTFLAGS").contains("target-cpu=native"),
            threads,
        }
    }

    pub fn render(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" rustc=\"{}\" target-cpu=native:{} worker_threads={}",
            self.nproc, self.cpu_model, self.rustc, self.target_cpu_native, self.threads
        )
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
