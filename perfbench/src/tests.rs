//! Benchmark self-tests: the generator is seeded, every generated
//! request succeeds on today's server, the checks catch corrupted
//! answers, the gated waits are in units of the reference time, and the
//! metric names agree with `BENCHMARK.json`.

use crate::gen::{self, Ids};
use crate::metrics;
use crate::net::{body, is_ok, Front};
use crate::stats::{Phase, Recorder};
use crate::workloads::{self, Client};
use copycat_serve::protocol::Op;
use copycat_serve::router::{Router, RouterConfig};
use copycat_serve::server::{Server, ServerConfig};
use copycat_util::json::Json;
use std::time::Instant;

struct InProcess<'a>(&'a Server);

impl Front for InProcess<'_> {
    fn call(&mut self, line: &str) -> Result<String, String> {
        Ok(self.0.handle_line(line))
    }
}

/// Flips one byte of every response body, keeping the `ok` envelope.
struct Corrupting<'a>(&'a Server);

impl Front for Corrupting<'_> {
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut resp = self.0.handle_line(line).into_bytes();
        let last = resp.len() - 2;
        resp[last] = if resp[last] == b'x' { b'y' } else { b'x' };
        String::from_utf8(resp).map_err(|e| e.to_string())
    }
}

fn lines(steps: &[gen::Step]) -> Vec<String> {
    steps.iter().map(|s| s.line.clone()).collect()
}

#[test]
fn same_seed_generates_the_same_request_lines() {
    let script = |seed: u64, durable: bool| {
        let (mut rng, mut ids) = (gen::client_rng(seed, 3), Ids::for_client(3));
        if durable {
            lines(&gen::durable_script("s", &mut rng, &mut ids))
        } else {
            lines(&gen::integrate_script("s", &mut rng, &mut ids))
        }
    };
    for durable in [false, true] {
        assert_eq!(script(7, durable), script(7, durable));
        assert_ne!(script(7, durable), script(8, durable));
    }
    assert_eq!(gen::hot_sessions(7), gen::hot_sessions(7));
    assert_ne!(gen::hot_sessions(7), gen::hot_sessions(8));
    assert_eq!(gen::hot_visit_order(7, 1, 2), gen::hot_visit_order(7, 1, 2));
}

#[test]
fn every_generated_request_succeeds_on_todays_server() {
    let server = Server::new(ServerConfig::default());
    for seed in 1..=6 {
        let (mut rng, mut ids) = (gen::client_rng(seed, 0), Ids::for_client(0));
        let mut cl = Client::new(Instant::now(), false);
        let integrate = gen::integrate_script(&format!("i{seed}"), &mut rng, &mut ids);
        let durable = gen::durable_script(&format!("d{seed}"), &mut rng, &mut ids);
        let mut snapshot = None;
        for step in integrate.iter().chain(&durable) {
            cl.step(&mut InProcess(&server), Phase::Timed, step, &mut snapshot);
        }
        assert_eq!(
            cl.rec.attempted_failed().1,
            0,
            "seed {seed}: {:?}",
            cl.rec.failures
        );
        assert_eq!(durable.iter().filter(|s| s.op.mutates()).count(), 130);
    }
    let hot = &gen::hot_sessions(1)[0];
    let mut ids = Ids::for_client(0);
    for body in std::iter::once(&hot.create).chain(hot.cycle.iter().map(|(_, b)| b)) {
        let resp = server.handle_line(&gen::with_id(ids.next_id(), body));
        assert!(is_ok(&resp), "{resp}");
    }
    server.shutdown();
}

#[test]
fn a_corrupted_response_lands_in_failed_frac() {
    let server = Server::new(ServerConfig::default());
    let hot = &gen::hot_sessions(1)[0];
    let mut ids = Ids::for_client(0);
    server.handle_line(&gen::with_id(ids.next_id(), &hot.create));
    let (op, b) = &hot.cycle[1];
    let want = body(&server.handle_line(&gen::with_id(ids.next_id(), b))).to_string();
    let mut cl = Client::new(Instant::now(), false);
    for front in [
        &mut InProcess(&server) as &mut dyn Front,
        &mut Corrupting(&server),
    ] {
        let id = ids.next_id();
        cl.send(front, Phase::Timed, *op, id, &gen::with_id(id, b), |r| {
            body(r) == want
        });
    }
    assert_eq!(cl.rec.attempted_failed(), (2, 1));

    // The integrate control check catches a response the socket changed.
    let (mut rng, mut ids) = (gen::client_rng(1, 0), Ids::for_client(0));
    let steps = gen::integrate_script("c", &mut rng, &mut ids);
    let mut exchanges = Vec::new();
    let mut cl = Client::new(Instant::now(), false);
    for step in steps.iter().take(4) {
        exchanges.push(
            cl.step(&mut Corrupting(&server), Phase::Timed, step, &mut None)
                .expect("answer"),
        );
    }
    let mut rec = Recorder::default();
    workloads::control_check(&exchanges, &mut rec);
    assert_eq!(rec.attempted_failed().1, 1);
    server.shutdown();
}

#[test]
fn a_recovery_mismatch_lands_in_failed_frac() {
    // An ephemeral router keeps nothing on disk, so "recovery" comes
    // back empty and the post-crash probes cannot match.
    let config = RouterConfig::ephemeral(2);
    let router = Router::new(config.clone());
    let (mut rng, mut ids) = (gen::client_rng(1, 0), Ids::for_client(0));
    let names = vec!["lost".to_string()];
    for step in gen::durable_script(&names[0], &mut rng, &mut ids)
        .iter()
        .take(16)
    {
        router.handle_line(&step.line);
    }
    let mut rec = Recorder::default();
    let mut t = crate::trace::Tracer::new(Instant::now());
    let router = workloads::crash_and_recover(router, &config, &names, &mut ids, &mut rec, &mut t)
        .expect("recover");
    router.shutdown();
    let (attempted, failed) = rec.attempted_failed();
    assert_eq!(t.named("router.recover").count(), 1);
    assert!(
        failed >= 3 && attempted > failed,
        "{attempted} attempted, {failed} failed"
    );
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        bench[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or("").to_string(),
                    m["unit"].as_str().unwrap_or("").to_string(),
                )
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = metrics::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = metrics::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    assert_eq!(workloads, crate::WORKLOADS);
}

#[test]
fn gated_waits_are_in_units_of_the_reference_time() {
    let mut rec = Recorder::default();
    for us in [200, 300, 400] {
        rec.record(
            Phase::Timed,
            Op::Autocomplete,
            Some(std::time::Duration::from_micros(us)),
            true,
        );
    }
    rec.reference_us = vec![600.0, 500.0, 400.0];
    let m = metrics::end_to_end(&rec, &workloads::Outcome::new(Instant::now()));
    assert_eq!(m["reference_us"], 500.0);
    assert_eq!(m["autocomplete_p50_us"], 300.0);
    assert!((m["autocomplete_p50_ref"] - 0.6).abs() < 1e-12);
    assert!((m["latency_p50_gm_ref"] - 0.6).abs() < 1e-9);
    assert_eq!(
        crate::reference::work(),
        crate::reference::work(),
        "the reference computation is fixed"
    );
}
