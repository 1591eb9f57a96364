//! Loopback end-to-end gate for the ingress event loop (PR 8).
//!
//! A seeded mixed ABR+CJS+VP trace replayed over a real TCP loopback
//! socket resolves every granted ticket, and every session's served
//! decisions — actions *and* logits — match the identical schedule
//! driven in-process through `submit`/`tick`/`poll_status` at 1e-5. Serve
//! order is FIFO per session, so each side's served set is an obs-index
//! prefix; the common prefix must agree exactly.
//!
//! What the socket costs in throughput is a `perf` quantity
//! (`ingress.socket_over_direct`, `dense_socket.decisions_per_s`), not a
//! gate here: a fixed 0.9x ratio failed about one full run in five on
//! the 2-vCPU reference box at parent and change alike.
//!
//! Seeds honour `NT_TRACE_SEED` so CI can fuzz the schedule.

use netllm::{serve, FleetModels, IngressConfig};
use nt_bench::netload::{replay_direct, replay_socket, ObsStreams};
use nt_bench::{trace_seed, Trace, TraceConfig, TraceShape};

const SHARDS: usize = 2;

fn tiny(name: &str) -> FleetModels {
    FleetModels::tiny(&std::env::temp_dir().join(name), 2)
}

/// The socket is a transport, not a different server: common served
/// prefixes agree on action and logits, and nothing vanishes.
#[test]
fn loopback_replay_matches_direct_fleet() {
    let seed = trace_seed(0xB8);
    println!("[loopback] trace seed {seed:#x} (pin with NT_TRACE_SEED)");
    let trace =
        Trace::generate(&TraceConfig { shape: TraceShape::Uniform, ticks: 10, sessions: 6, seed });
    let streams = ObsStreams::generate(trace.sessions.len(), trace.ticks as usize, seed ^ 0x5EED);

    // Same zoo dir + seeded specs => bit-identical weights on each side.
    let socket_models = tiny("netllm-loopback-eq");
    let direct_models = tiny("netllm-loopback-eq");

    let handle = serve(socket_models, IngressConfig { shards: SHARDS, ..IngressConfig::default() })
        .expect("serve ingress");
    let socket = replay_socket(handle.addr(), &trace, &streams);
    let stats = handle.stats();
    handle.shutdown();

    let direct = replay_direct(&direct_models, SHARDS, &trace, &streams);

    assert_eq!(stats.protocol_errors, 0, "replay must be protocol-clean");
    assert!(socket.total_served() > 0, "trace produced no decisions (seed {seed:#x})");
    assert_eq!(
        stats.completions,
        socket.total_served() as u64,
        "ingress completion count disagrees with the client"
    );

    for s in 0..trace.sessions.len() {
        // FIFO serving => served obs indices form the prefix 0..k.
        for (j, (i, _, _)) in socket.served[s].iter().enumerate() {
            assert_eq!(*i, j, "socket session {s} served out of prefix order");
        }
        for (j, (i, _, _)) in direct.served[s].iter().enumerate() {
            assert_eq!(*i, j, "direct session {s} served out of prefix order");
        }
        let common = socket.served[s].len().min(direct.served[s].len());
        for j in 0..common {
            let (_, sock_action, sock_logits) = &socket.served[s][j];
            let (_, dir_action, dir_logits) = &direct.served[s][j];
            assert_eq!(
                sock_action, dir_action,
                "session {s} obs {j}: socket action diverged (seed {seed:#x})"
            );
            assert_eq!(sock_logits.len(), dir_logits.len());
            for (a, b) in sock_logits.iter().zip(dir_logits) {
                assert!(
                    (a - b).abs() <= 1e-5,
                    "session {s} obs {j}: logits diverged ({a} vs {b}, seed {seed:#x})"
                );
            }
        }
        // Everything granted resolved one way or the other: served prefix
        // plus leave-failed tail covers every obs index we ever sent.
        let sock_resolved = socket.served[s].len() + socket.failed[s].len();
        let dir_resolved = direct.served[s].len() + direct.failed[s].len();
        for (j, &i) in socket.failed[s].iter().enumerate() {
            assert_eq!(i, socket.served[s].len() + j, "socket failures must be the tail");
        }
        assert!(
            sock_resolved > 0
                || dir_resolved == 0
                || trace.sessions[s].leave_tick <= trace.sessions[s].join_tick,
            "session {s} resolved nothing on the socket but {dir_resolved} directly"
        );
    }
}
