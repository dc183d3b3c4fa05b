//! End-to-end test of `maestro-bench replay`: write a real snapshot file
//! with the library, then drive the compiled binary over it.

use maestro::Maestro;
use maestro_bench::scenario::scenario;
use maestro_runtime::SnapshotPlan;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_maestro-bench"))
}

fn write_snapshot(tag: &str, suspend_ns: u64) -> std::path::PathBuf {
    let sc = scenario("contended-adaptive").expect("registered scenario");
    let mut m = Maestro::new(sc.config);
    let snap = m
        .run_captured(sc.name, &mut (), sc.spec.into_task(), &SnapshotPlan::suspend_at(suspend_ns))
        .expect("capture succeeds")
        .suspended()
        .expect("suspends");
    let path = std::env::temp_dir().join(format!("maestro-replay-cli-{tag}.snap"));
    std::fs::write(&path, snap.to_bytes()).expect("snapshot written");
    path
}

#[test]
fn replay_to_timestamp_skips_cold_start_and_stops_at_until() {
    let path = write_snapshot("until", 80_000_000);
    let out = bin()
        .args(["replay", "--snapshot", path.to_str().unwrap(), "--until", "200000000"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("replaying scenario 'contended-adaptive'"), "{stdout}");
    assert!(stdout.contains("80000000 ns"), "{stdout}");
    assert!(stdout.contains("replayed 120000000 ns of virtual time"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_without_until_runs_to_completion() {
    let path = write_snapshot("full", 80_000_000);
    let out = bin()
        .args(["replay", "--snapshot", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("run completed"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_routes_service_snapshots_and_prints_the_ledger() {
    use maestro_bench::experiments::service_at_scale;
    use maestro_bench::scenario::service_facade;
    use maestro_workloads::Scale;

    // Suspend inside the first burst window: arrival RNG mid-stream,
    // retries pending, admission queue hot.
    let sc = service_at_scale("svc-burst", Scale::Test);
    let (mut m, source, _) = service_facade(&sc);
    let snap = m
        .run_service_captured(sc.name, &mut (), source, &SnapshotPlan::suspend_at(8_000_000))
        .expect("capture succeeds")
        .suspended()
        .expect("suspends mid-burst");
    let path = std::env::temp_dir().join("maestro-replay-cli-service.snap");
    std::fs::write(&path, snap.to_bytes()).expect("snapshot written");

    let out = bin()
        .args(["replay", "--snapshot", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("replaying service scenario 'svc-burst'"), "{stdout}");
    assert!(stdout.contains("run completed"), "{stdout}");
    // The rebuilt stack finishes the request stream with a balanced ledger.
    assert!(stdout.contains("conservation gap 0"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_rejects_garbage_and_bad_usage() {
    let path = std::env::temp_dir().join("maestro-replay-cli-garbage.snap");
    std::fs::write(&path, b"not a snapshot").unwrap();
    let out = bin()
        .args(["replay", "--snapshot", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(path).ok();

    let out = bin().args(["replay"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    let out = bin()
        .args(["replay", "--snapshot", "/nonexistent/x.snap", "--until", "nope"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

fn write_service_snapshot(tag: &str, suspend_ns: u64) -> std::path::PathBuf {
    use maestro_bench::experiments::service_at_scale;
    use maestro_bench::scenario::service_facade;
    use maestro_workloads::Scale;

    let sc = service_at_scale("svc-burst", Scale::Test);
    let (mut m, source, _) = service_facade(&sc);
    let snap = m
        .run_service_captured(sc.name, &mut (), source, &SnapshotPlan::suspend_at(suspend_ns))
        .expect("capture succeeds")
        .suspended()
        .expect("suspends mid-burst");
    let path = std::env::temp_dir().join(format!("maestro-replay-cli-service-{tag}.snap"));
    std::fs::write(&path, snap.to_bytes()).expect("snapshot written");
    path
}

#[test]
fn service_replay_to_timestamp_suspends_at_until() {
    let path = write_service_snapshot("until", 8_000_000);
    let out = bin()
        .args(["replay", "--snapshot", path.to_str().unwrap(), "--until", "12000000"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("replaying service scenario 'svc-burst'"), "{stdout}");
    assert!(stdout.contains("replayed 4000000 ns of virtual time"), "{stdout}");
    assert!(!stdout.contains("run completed"), "{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn replay_rejects_until_at_or_before_the_snapshot() {
    let batch = write_snapshot("stale-until", 80_000_000);
    let service = write_service_snapshot("stale-until", 8_000_000);
    for (path, until) in [
        (&batch, "80000000"),
        (&batch, "1"),
        (&service, "8000000"),
        (&service, "1"),
    ] {
        let out = bin()
            .args(["replay", "--snapshot", path.to_str().unwrap(), "--until", until])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{path:?} --until {until}: {stderr}");
        assert!(stderr.contains("nothing to replay"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing runs: {}", String::from_utf8_lossy(&out.stdout));
    }
    std::fs::remove_file(batch).ok();
    std::fs::remove_file(service).ok();
}
