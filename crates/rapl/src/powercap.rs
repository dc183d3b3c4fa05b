//! Linux powercap sysfs backend.
//!
//! On a physical RAPL-capable machine the kernel exposes the package energy
//! counters without raw MSR access under
//! `/sys/class/powercap/intel-rapl:<n>/`:
//!
//! * `name` — e.g. `package-0`;
//! * `energy_uj` — cumulative energy in microjoules;
//! * `max_energy_range_uj` — the value at which `energy_uj` wraps.
//!
//! [`PowercapDomain::discover`] walks that tree (or any look-alike directory,
//! which is how the tests exercise it without hardware) and returns one
//! [`PowercapDomain`] per package domain, skipping sub-domains like
//! `intel-rapl:0:0` (core/dram planes) to mirror the paper's package-level
//! measurements.

use std::fs;
use std::path::{Path, PathBuf};

use crate::RaplError;

/// The standard powercap root on Linux.
pub const DEFAULT_POWERCAP_ROOT: &str = "/sys/class/powercap";

/// One `intel-rapl:<n>` package domain.
#[derive(Clone, Debug)]
pub struct PowercapDomain {
    name: String,
    energy_path: PathBuf,
    max_range_uj: u64,
}

fn read_trimmed(path: &Path) -> Result<String, RaplError> {
    Ok(fs::read_to_string(path)?.trim().to_string())
}

fn read_u64(path: &Path) -> Result<u64, RaplError> {
    let content = read_trimmed(path)?;
    content
        .parse::<u64>()
        .map_err(|_| RaplError::Parse { path: path.to_path_buf(), content })
}

impl PowercapDomain {
    /// Open one domain directory (must contain `name`, `energy_uj`,
    /// `max_energy_range_uj`).
    pub fn open(dir: &Path) -> Result<Self, RaplError> {
        let name = read_trimmed(&dir.join("name"))?;
        let max_range_uj = read_u64(&dir.join("max_energy_range_uj"))?;
        Ok(PowercapDomain { name, energy_path: dir.join("energy_uj"), max_range_uj })
    }

    /// Discover all *package* domains under `root`, sorted by name.
    ///
    /// Top-level domains are directories named `intel-rapl:<n>` (exactly one
    /// colon); nested planes (`intel-rapl:<n>:<m>`) are ignored. Returns
    /// [`RaplError::NoDomains`] when none exist — the caller then falls back
    /// to the simulated machine.
    pub fn discover(root: &Path) -> Result<Vec<PowercapDomain>, RaplError> {
        let mut domains = Vec::new();
        let entries = match fs::read_dir(root) {
            Ok(e) => e,
            Err(_) => return Err(RaplError::NoDomains(root.to_path_buf())),
        };
        for entry in entries.flatten() {
            let file_name = entry.file_name();
            let Some(name) = file_name.to_str() else { continue };
            if !name.starts_with("intel-rapl") || name.matches(':').count() != 1 {
                continue;
            }
            // Tolerate stray files / broken symlinks in the tree.
            if let Ok(domain) = PowercapDomain::open(&entry.path()) {
                if domain.name.starts_with("package") {
                    domains.push(domain);
                }
            }
        }
        if domains.is_empty() {
            return Err(RaplError::NoDomains(root.to_path_buf()));
        }
        domains.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(domains)
    }

    /// Whether this host exposes package RAPL domains at the default root.
    pub fn available() -> bool {
        PowercapDomain::discover(Path::new(DEFAULT_POWERCAP_ROOT)).is_ok()
    }

    /// The kernel-reported domain name (e.g. `package-0`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One raw counter reading, in microjoules.
    pub fn read_raw(&self) -> Result<u64, RaplError> {
        read_u64(&self.energy_path)
    }

    /// Energy per raw count: `energy_uj` counts microjoules.
    pub fn unit_joules(&self) -> f64 {
        1e-6
    }

    /// The counter wraps modulo this value: `energy_uj` wraps after
    /// `max_energy_range_uj` (an inclusive range).
    pub fn wrap_modulus(&self) -> u64 {
        self.max_range_uj.saturating_add(1).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn mkdomain(root: &Path, dir: &str, name: &str, energy: &str, range: &str) {
        let d = root.join(dir);
        fs::create_dir_all(&d).unwrap();
        fs::write(d.join("name"), name).unwrap();
        fs::write(d.join("energy_uj"), energy).unwrap();
        fs::write(d.join("max_energy_range_uj"), range).unwrap();
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("maestro-rapl-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn discovers_packages_and_skips_planes() {
        let root = tmpdir("discover");
        mkdomain(&root, "intel-rapl:0", "package-0\n", "123456\n", "262143328850\n");
        mkdomain(&root, "intel-rapl:1", "package-1\n", "99\n", "262143328850\n");
        mkdomain(&root, "intel-rapl:0:0", "core\n", "5\n", "262143328850\n");
        mkdomain(&root, "intel-rapl:0:1", "dram\n", "5\n", "262143328850\n");
        let domains = PowercapDomain::discover(&root).unwrap();
        assert_eq!(domains.len(), 2);
        assert_eq!(domains[0].name(), "package-0");
        assert_eq!(domains[1].name(), "package-1");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reads_energy_and_wrap_range() {
        let root = tmpdir("read");
        mkdomain(&root, "intel-rapl:0", "package-0", "5000000", "262143328850");
        let d = PowercapDomain::discover(&root).unwrap().remove(0);
        assert_eq!(d.read_raw().unwrap(), 5_000_000);
        assert_eq!(d.unit_joules(), 1e-6);
        assert_eq!(d.wrap_modulus(), 262_143_328_851);
        // Counter advances.
        fs::write(root.join("intel-rapl:0/energy_uj"), "5000500").unwrap();
        assert_eq!(d.read_raw().unwrap(), 5_000_500);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_root_is_no_domains() {
        let root = tmpdir("empty");
        match PowercapDomain::discover(&root) {
            Err(RaplError::NoDomains(p)) => assert_eq!(p, root),
            other => panic!("expected NoDomains, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_is_no_domains() {
        let root = PathBuf::from("/definitely/not/here");
        assert!(matches!(PowercapDomain::discover(&root), Err(RaplError::NoDomains(_))));
    }

    #[test]
    fn non_package_only_tree_is_no_domains() {
        let root = tmpdir("planes");
        mkdomain(&root, "intel-rapl:0:0", "core", "5", "100");
        assert!(matches!(PowercapDomain::discover(&root), Err(RaplError::NoDomains(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_counter_is_parse_error() {
        let root = tmpdir("garbage");
        mkdomain(&root, "intel-rapl:0", "package-0", "not-a-number", "100");
        match PowercapDomain::discover(&root) {
            // open() fails on max range? range is fine; energy read fails later.
            Ok(domains) => match domains[0].read_raw() {
                Err(RaplError::Parse { content, .. }) => assert_eq!(content, "not-a-number"),
                other => panic!("expected Parse, got {other:?}"),
            },
            Err(e) => panic!("discover should succeed: {e}"),
        }
        let _ = fs::remove_dir_all(&root);
    }
}
