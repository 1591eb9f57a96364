//! The session bits, pinned. BBA, MPC and `FixedRung(2)` stream both
//! videos over FCC-like, cellular-like and synth-wide traces through
//! [`run_session`] and [`run_emulated_session`], and every field of each
//! session's [`SessionStats`] and of every [`ChunkRecord`] is folded into
//! one FNV-1a digest per entry point.
//!
//! The digests are constants. A refactor of the session loop that claims
//! to keep what the simulator and the emulator compute must pass this test
//! unchanged.
//!
//! The traces and videos are drawn through `Rng`, whose `normal` uses the
//! platform's libm (`ln` / `sin` / `cos`); the constants were computed
//! against glibc on x86-64. On another libm, compare against the parent
//! commit on the same host before reading a failure as a regression.

use nt_abr::{
    envivio_like, generate_set, run_emulated_session, run_session, synth_video, AbrPolicy, Bba,
    ChunkRecord, FixedRung, Mpc, SessionStats, TraceKind,
};
use nt_tensor::Rng;

const SIM_DIGEST: u64 = 0x6270_c0d9_10b3_a431;
const EMU_DIGEST: u64 = 0x5b1c_1fe2_58ac_fcfc;

/// FNV-1a over 64-bit words in little-endian byte order.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Every field of the session's stats, then of each record, in
    /// declaration order.
    fn session(&mut self, (stats, records): &(SessionStats, Vec<ChunkRecord>)) {
        self.f(stats.qoe_per_chunk);
        self.f(stats.mean_bitrate_mbps);
        self.f(stats.total_rebuffer_secs);
        self.f(stats.mean_bitrate_change_mbps);
        self.word(stats.chunks as u64);
        for r in records {
            self.word(r.chunk as u64);
            self.word(r.rung as u64);
            self.f(r.bitrate_mbps);
            self.f(r.rebuffer_secs);
            self.f(r.download_secs);
            self.f(r.buffer_after);
            self.f(r.throughput_mbps);
        }
    }
}

#[test]
fn session_loops_are_pinned() {
    let videos = [envivio_like(&mut Rng::seeded(0x56AD)), synth_video(&mut Rng::seeded(0x56AD))];
    let kinds = [TraceKind::FccLike, TraceKind::CellularLike, TraceKind::SynthWide];
    let (mut sim, mut emu) = (Fnv(0xcbf2_9ce4_8422_2325), Fnv(0xcbf2_9ce4_8422_2325));
    for video in &videos {
        for (k, &kind) in kinds.iter().enumerate() {
            for trace in &generate_set(kind, 3, 350, &mut Rng::seeded(0xB175 + k as u64)) {
                let policies: [&mut dyn AbrPolicy; 3] =
                    [&mut Bba, &mut Mpc::default(), &mut FixedRung(2)];
                for policy in policies {
                    sim.session(&run_session(policy, video, trace));
                    emu.session(&run_emulated_session(policy, video, trace));
                }
            }
        }
    }
    assert_eq!(sim.0, SIM_DIGEST, "run_session digest {:#018x}", sim.0);
    assert_eq!(emu.0, EMU_DIGEST, "run_emulated_session digest {:#018x}", emu.0);
}
