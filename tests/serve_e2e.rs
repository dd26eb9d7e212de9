//! End-to-end: the full 7-policy × 12-trace paper grid served over the
//! wire is byte-identical to the offline engine — and to the committed
//! golden snapshot, so a protocol bug cannot hide behind a matching pair
//! of equally-wrong outputs.

use hc_core::campaign::{CampaignBuilder, CampaignReport, CampaignRunner};
use hc_serve::{client, ServeOptions, Server};

const GOLDEN_PATH: &str = "tests/golden/campaign_7x12.json";
const GOLDEN_TRACE_LEN: usize = 2_000;

#[test]
fn served_paper_grid_matches_offline_bytes_and_the_golden_snapshot() {
    let dir = std::env::temp_dir().join(format!("hc-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(dir.clone()),
        max_requests: Some(2),
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.serve());

    let spec = CampaignBuilder::new("golden-7x12")
        .paper_policies()
        .spec_suite()
        .trace_len(GOLDEN_TRACE_LEN)
        .build()
        .expect("the paper grid is a valid campaign");

    // Submit twice: the first populates the shared cache, the second must
    // replay from it — both byte-identical to the offline runner.
    let cold = client::submit(&addr, &spec.to_json(), |_| {}).expect("cold submit");
    let warm = client::submit(&addr, &spec.to_json(), |_| {}).expect("warm submit");
    assert_eq!(cold, warm, "cold and warm served reports must not diverge");

    let offline = CampaignRunner::new()
        .run(&spec)
        .expect("offline run")
        .to_json();
    assert_eq!(warm, offline, "served bytes must equal `campaign --json`");

    // Pin the simulation content to the committed golden snapshot, in the
    // same shape `tests/golden_grid.rs` uses.
    let report = CampaignReport::from_json(&warm).expect("served report parses");
    let snapshot = serde::json::to_string_pretty(&(&report.baselines, &report.cells));
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden snapshot missing; regenerate with GOLDEN_REGEN=1 cargo test --test golden_grid",
    );
    assert_eq!(
        snapshot, golden,
        "served grid diverged from the golden snapshot"
    );

    // max_requests: Some(2) — the daemon drained itself after the warm
    // submit, so the serve thread joins without a /shutdown call.
    daemon.join().unwrap().expect("self-drain");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_deeply_nested_body_is_refused_and_the_daemon_keeps_serving() {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.serve());

    // 200 KB of nesting: without a depth bound the decoder's recursion
    // overflows the connection thread's stack and aborts the daemon.
    let body = "[".repeat(100_000) + &"]".repeat(100_000);
    match client::submit(&addr, &body, |_| {}).expect_err("must reject") {
        hc_serve::ServeError::Rejected { status, kind, .. } => {
            assert_eq!(status, 400);
            assert_eq!(kind, "invalid_spec");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    let health = client::get(&addr, "/healthz").expect("daemon still serves");
    assert!(health.contains("\"ok\""), "{health}");
    client::shutdown(&addr).expect("drain");
    daemon.join().unwrap().expect("clean exit");
}
