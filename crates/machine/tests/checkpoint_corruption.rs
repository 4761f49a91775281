//! Corruption-injection tests of the checkpoint file format: every way a
//! file can rot on disk — truncation, bit flips, foreign versions, payload
//! mix-ups — must be rejected with the expected typed [`CheckpointError`],
//! never a panic and never a silently-wrong resume.
//!
//! Checks happen in a fixed order (truncation → checksum → version →
//! malformed → instance digest), so tampered payloads here are *re-signed*
//! with a fresh digest when the test targets a check behind the checksum.

use saim_machine::checkpoint::{digest64, CHECKPOINT_VERSION};
use saim_machine::service::{JobSpec, SolverSpec};
use saim_machine::{
    BetaSchedule, Checkpoint, CheckpointError, Dynamics, EnsembleConfig, OutcomeKind, RunController,
};
use std::path::{Path, PathBuf};

/// A unique scratch directory, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("saim-ckpt-corruption-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
        ScratchDir(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A real checkpoint captured from a live interrupted run — the corruption
/// below lands on exactly the bytes production would write.
fn live_checkpoint() -> Checkpoint {
    let mut b = saim_ising::QuboBuilder::new(6);
    for i in 0..6 {
        b.add_linear(i, -1.0).expect("index in range");
    }
    for i in 1..6 {
        b.add_pair(i - 1, i, 0.5).expect("indices in range");
    }
    let spec = JobSpec::new(
        4,
        b.build(),
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 2,
            threads: 1,
            schedule: BetaSchedule::linear(6.0),
            mcs_per_run: 40,
            dynamics: Dynamics::Gibbs,
        }),
        11,
    )
    .with_instance_digest(777);
    let cut = spec.run_controlled(
        &RunController::unlimited()
            .with_stop_after(3)
            .with_poll_interval(1),
    );
    assert_eq!(cut.outcome.outcome_kind, OutcomeKind::Checkpointed);
    *cut.checkpoint
        .expect("the interrupted run carries a checkpoint")
}

/// Re-signs a (possibly tampered) payload line with a valid digest, so the
/// file passes the checksum gate and exercises the checks behind it.
fn signed(payload: &str) -> String {
    format!("{payload}\n{:016x}\n", digest64(payload.as_bytes()))
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).expect("test file is writable");
}

#[test]
fn intact_files_roundtrip_exactly() {
    let scratch = ScratchDir::new("roundtrip");
    let checkpoint = live_checkpoint();
    let path = scratch.file("good.ckpt");
    checkpoint.save(&path).expect("saves");
    let back = Checkpoint::load(&path).expect("an untouched file loads");
    assert_eq!(back, checkpoint);
    assert!(
        !path.with_extension("ckpt.tmp").exists(),
        "the staging sibling is renamed away"
    );
}

#[test]
fn truncated_files_are_rejected() {
    let scratch = ScratchDir::new("truncated");
    let checkpoint = live_checkpoint();
    let path = scratch.file("cut.ckpt");
    checkpoint.save(&path).expect("saves");
    let full = std::fs::read_to_string(&path).expect("reads");

    // an empty file, a payload with no checksum line, and a file cut in the
    // middle of the checksum are all the same crash signature
    for cut in [
        String::new(),
        full.lines().next().expect("payload line").to_string(),
        full[..full.len() - 10].to_string(),
    ] {
        write(&path, &cut);
        assert_eq!(
            Checkpoint::load(&path),
            Err(CheckpointError::Truncated),
            "cut to {} bytes",
            cut.len()
        );
    }
}

#[test]
fn flipped_bits_are_checksum_mismatches() {
    let scratch = ScratchDir::new("bitflip");
    let checkpoint = live_checkpoint();
    let path = scratch.file("flipped.ckpt");
    checkpoint.save(&path).expect("saves");
    let pristine = std::fs::read(&path).expect("reads");

    // a single flipped bit anywhere in the payload line must be caught —
    // probe a spread of offsets, including the first and last payload byte
    let payload_len = pristine
        .iter()
        .position(|&b| b == b'\n')
        .expect("two-line format");
    for offset in [0usize, 1, payload_len / 2, payload_len - 1] {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corruption lands");
        assert_eq!(
            Checkpoint::load(&path),
            Err(CheckpointError::ChecksumMismatch),
            "flip at byte {offset}"
        );
    }

    // a flip in the stored digest is equally fatal (still valid hex: the
    // low nibbles of '0'..'9' stay digits under ^1)
    let mut bytes = pristine.clone();
    bytes[payload_len + 3] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corruption lands");
    assert!(matches!(
        Checkpoint::load(&path),
        Err(CheckpointError::ChecksumMismatch | CheckpointError::Truncated)
    ));
}

#[test]
fn foreign_versions_are_rejected_even_when_correctly_signed() {
    let scratch = ScratchDir::new("version");
    let checkpoint = live_checkpoint();
    let payload = checkpoint.to_json();
    // the envelope's schema comes first; the embedded JobSpec's own schema
    // field is a different number, so this rewrite touches only the envelope
    let tag = format!("\"schema\":{CHECKPOINT_VERSION}");
    assert!(payload.starts_with(&format!("{{{tag}")));
    let foreign = payload.replacen(&tag, "\"schema\":99", 1);
    let path = scratch.file("future.ckpt");
    write(&path, &signed(&foreign));
    assert_eq!(
        Checkpoint::load(&path),
        Err(CheckpointError::VersionMismatch {
            found: 99,
            expected: CHECKPOINT_VERSION
        })
    );
}

#[test]
fn instance_digest_mixups_are_rejected() {
    let scratch = ScratchDir::new("digest");
    let checkpoint = live_checkpoint();
    let payload = checkpoint.to_json();
    // the envelope digest precedes the embedded spec's copy, so replacing
    // the first occurrence simulates a state image grafted onto the wrong
    // instance's record
    let tampered = payload.replacen("\"instance_digest\":777", "\"instance_digest\":778", 1);
    assert_ne!(tampered, payload);
    let path = scratch.file("mixup.ckpt");
    write(&path, &signed(&tampered));
    assert_eq!(
        Checkpoint::load(&path),
        Err(CheckpointError::InstanceDigestMismatch {
            found: 778,
            expected: 777
        })
    );
}

#[test]
fn malformed_payloads_are_typed_never_panics() {
    let scratch = ScratchDir::new("malformed");
    let path = scratch.file("garbage.ckpt");

    // signed garbage: passes the checksum, fails the parse
    for garbage in ["not json at all", "[1,2,3]", "{\"job\":1}"] {
        write(&path, &signed(garbage));
        assert!(
            matches!(Checkpoint::load(&path), Err(CheckpointError::Malformed(_))),
            "payload {garbage:?}"
        );
    }

    // a third line after the checksum means the file was appended to
    let checkpoint = live_checkpoint();
    let payload = checkpoint.to_json();
    write(&path, &format!("{}extra\n", signed(&payload)));
    assert!(matches!(
        Checkpoint::load(&path),
        Err(CheckpointError::Malformed(_))
    ));

    // an envelope/spec job-id disagreement is a mix-up, not a resume
    let tampered = payload.replacen("\"job\":4", "\"job\":5", 1);
    write(&path, &signed(&tampered));
    assert!(matches!(
        Checkpoint::load(&path),
        Err(CheckpointError::Malformed(_))
    ));
}

#[test]
fn missing_files_are_io_errors() {
    let scratch = ScratchDir::new("missing");
    assert!(matches!(
        Checkpoint::load(&scratch.file("never-written.ckpt")),
        Err(CheckpointError::Io(_))
    ));
}
