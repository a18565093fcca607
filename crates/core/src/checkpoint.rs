//! SCF checkpoint/restart.
//!
//! At extreme scale (the paper's §5 projection) a Born loop runs for hours;
//! losing the whole run to a node failure in iteration 14 of 15 is not
//! acceptable. [`ScfCheckpoint`] serializes everything the loop needs to
//! continue *bit-exactly*: the mixed self-energies, the previous `G<`
//! iterate (so the first resumed residual matches the uninterrupted run),
//! the residual/current histories, the adaptive-mixing controller state
//! and, for an accelerated solve, the [`Anderson`] history.
//!
//! The format is a deliberately simple little-endian binary layout (magic,
//! scalar header, then length-prefixed `f64` arrays for each tensor):
//! raw `f64` bit patterns round-trip exactly, which a text format would
//! not guarantee, and the writer goes through a temp file + atomic rename
//! so a crash mid-write can never leave a torn checkpoint behind.
//!
//! Version 2 (`QTCKPT02`, written today) adds the Anderson history section
//! between Π≷ and `prev_gl`: its packed length `n` (0 for no history), the
//! column count, then the `(ΔX, ΔF)` columns and the pending column as raw
//! `n`-element arrays of single-precision `(re, im)` pairs. Version 1
//! (`QTCKPT01`) files have no such section and load with an empty history.

use crate::gf::{ElectronSelfEnergy, PhononSelfEnergy};
use crate::scf::{Anderson, Column, ANDERSON_DEPTH};
use qt_linalg::{c64, Tensor};
use qt_telemetry::counters::{self, Counter};
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic prefix identifying checkpoint format version 2, the one written.
const MAGIC: &[u8; 8] = b"QTCKPT02";

/// Magic prefix of format version 1, still read (with an empty history).
const MAGIC_V1: &[u8; 8] = b"QTCKPT01";

/// Family prefix shared by every checkpoint format version; the two bytes
/// after it carry the version digits ("02" today).
const FAMILY: &[u8; 6] = b"QTCKPT";

/// Why a checkpoint could not be read.
///
/// Callers that merely *try* to resume (a missing or stale checkpoint is
/// routine) can match on the variant to decide between "start fresh" and
/// "refuse to clobber a file we do not understand": a [`Truncated`] or
/// [`BadMagic`] file is garbage, while [`UnsupportedVersion`] means the
/// file is a real checkpoint from an incompatible build and deserves a
/// loud error rather than a silent cold start.
///
/// [`Truncated`]: CheckpointError::Truncated
/// [`BadMagic`]: CheckpointError::BadMagic
/// [`UnsupportedVersion`]: CheckpointError::UnsupportedVersion
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be opened or read at all.
    Io(io::Error),
    /// The first bytes are not `QTCKPT..` — this is not a checkpoint.
    BadMagic,
    /// The `QTCKPT` family prefix matched but the version digits did not;
    /// `found` is the on-disk version field, `supported` the one this
    /// build reads.
    UnsupportedVersion { found: [u8; 2], supported: [u8; 2] },
    /// The file ended before the structure it promised; `needed` bytes
    /// were requested with only `available` left.
    Truncated { needed: usize, available: usize },
    /// A structurally impossible field (e.g. a length prefix or tensor
    /// shape that cannot fit in the file).
    Invalid(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a qt checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version `{}` (this build reads `{}`)",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(supported),
            ),
            CheckpointError::Truncated { needed, available } => write!(
                f,
                "truncated checkpoint: needed {needed} bytes, {available} available"
            ),
            CheckpointError::Invalid(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Persistent snapshot of the Born loop between two iterations.
#[derive(Clone, Debug)]
pub struct ScfCheckpoint {
    /// Next iteration to run (iterations `0..iteration` are complete).
    pub iteration: usize,
    /// Adaptive-mixing controller state: the effective mixing factor.
    pub mixing_current: f64,
    /// Adaptive-mixing controller state: last observed residual.
    pub prev_residual: Option<f64>,
    /// Adaptive-mixing controller state: consecutive-decrease streak.
    pub decrease_streak: u32,
    /// Finite residuals recorded so far.
    pub residuals: Vec<f64>,
    /// Electrical current after each completed iteration.
    pub current_history: Vec<f64>,
    /// Mixed electron scattering self-energy Σ≷.
    pub sigma: ElectronSelfEnergy,
    /// Mixed phonon scattering self-energy Π≷.
    pub pi: PhononSelfEnergy,
    /// `G<` of the last completed iteration (residual continuity).
    pub prev_gl: Option<Tensor>,
}

/// When and where [`crate::scf::run_scf_with`] writes checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file path (overwritten atomically on every write).
    pub path: std::path::PathBuf,
    /// Write after every `every` completed iterations (0 disables writes).
    pub every: usize,
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_slice(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_f64(out, v);
    }
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_u64(out, t.shape().len() as u64);
    for &d in t.shape() {
        put_u64(out, d as u64);
    }
    for z in t.as_slice() {
        put_f64(out, z.re);
        put_f64(out, z.im);
    }
}

fn put_pairs(out: &mut Vec<u8>, vs: &[[f32; 2]]) {
    for v in vs.iter().flatten() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// The Anderson history section: packed length `n` (0: none), the column
/// count, each column's `ΔX` and `ΔF`, then the pending column.
fn put_history(out: &mut Vec<u8>, history: Option<&Anderson>) {
    let Some((h, pending)) = history.and_then(|h| Some((h, h.pending.as_ref()?))) else {
        put_u64(out, 0);
        return;
    };
    put_u64(out, pending.dx.len() as u64);
    put_u64(out, h.cols.len() as u64);
    for c in h.cols.iter().chain([pending]) {
        put_pairs(out, &c.dx);
        put_pairs(out, &c.df);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(CheckpointError::Truncated {
                needed: n,
                available: self.buf.len() - self.pos,
            });
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len_checked()?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn tensor(&mut self) -> Result<Tensor, CheckpointError> {
        let ndim = self.len_checked()?;
        let shape: Vec<usize> = (0..ndim)
            .map(|_| self.u64().map(|d| d as usize))
            .collect::<Result<_, _>>()?;
        // Bound the element count before Tensor::zeros: a corrupt shape
        // field must not trigger a multi-terabyte allocation. Each element
        // occupies 16 bytes (re + im) in the file.
        let elems = shape
            .iter()
            .try_fold(1usize, |a, &d| a.checked_mul(d))
            .ok_or(CheckpointError::Invalid("tensor shape overflows usize"))?;
        let need = elems
            .checked_mul(16)
            .ok_or(CheckpointError::Invalid("tensor shape overflows usize"))?;
        if need > self.buf.len() - self.pos {
            return Err(CheckpointError::Invalid(
                "tensor shape exceeds remaining file size",
            ));
        }
        let mut t = Tensor::zeros(&shape);
        for z in t.as_mut_slice() {
            let re = self.f64()?;
            let im = self.f64()?;
            *z = c64(re, im);
        }
        Ok(t)
    }

    /// `n` single-precision `[re, im]` pairs, bounded by the remaining
    /// bytes before any allocation.
    fn pairs(&mut self, n: usize) -> Result<Vec<[f32; 2]>, CheckpointError> {
        if n.checked_mul(8)
            .is_none_or(|b| b > self.buf.len() - self.pos)
        {
            return Err(CheckpointError::Invalid(
                "history length exceeds remaining file size",
            ));
        }
        (0..n).map(|_| Ok([self.f32()?, self.f32()?])).collect()
    }

    /// The history section written by [`put_history`]; `packed` is the
    /// element count of the four self-energy tensors it must match.
    fn history(&mut self, packed: usize, into: &mut Anderson) -> Result<(), CheckpointError> {
        let n = self.u64()?;
        if n == 0 {
            return Ok(());
        }
        if n != packed as u64 {
            return Err(CheckpointError::Invalid(
                "history length disagrees with the self-energies",
            ));
        }
        let n = n as usize;
        let m = self.u64()?;
        // Between steps the oldest of ANDERSON_DEPTH columns is pending.
        if m >= ANDERSON_DEPTH as u64 {
            return Err(CheckpointError::Invalid(
                "history deeper than ANDERSON_DEPTH",
            ));
        }
        for i in 0..=m {
            let dx = self.pairs(n)?;
            let df = self.pairs(n)?;
            let c = Column { dx, df };
            if i < m {
                into.cols.push(c);
            } else {
                into.pending = Some(c);
            }
        }
        Ok(())
    }

    /// A length prefix, rejected before allocation when it cannot possibly
    /// fit in the remaining bytes (corrupt headers would otherwise ask for
    /// absurd allocations).
    fn len_checked(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err(CheckpointError::Invalid(
                "length field exceeds remaining file size",
            ));
        }
        Ok(n as usize)
    }
}

impl ScfCheckpoint {
    /// Serialize to the format described in the module docs, with an empty
    /// Anderson history.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(None)
    }

    fn encode(&self, history: Option<&Anderson>) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.iteration as u64);
        put_f64(&mut out, self.mixing_current);
        put_u64(&mut out, self.prev_residual.is_some() as u64);
        put_f64(&mut out, self.prev_residual.unwrap_or(0.0));
        put_u64(&mut out, self.decrease_streak as u64);
        put_f64_slice(&mut out, &self.residuals);
        put_f64_slice(&mut out, &self.current_history);
        put_tensor(&mut out, &self.sigma.lesser);
        put_tensor(&mut out, &self.sigma.greater);
        put_tensor(&mut out, &self.pi.lesser);
        put_tensor(&mut out, &self.pi.greater);
        put_history(&mut out, history);
        put_u64(&mut out, self.prev_gl.is_some() as u64);
        if let Some(gl) = &self.prev_gl {
            put_tensor(&mut out, gl);
        }
        out
    }

    /// Parse a serialized checkpoint (version 2 or 1), discarding any
    /// Anderson history.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        Self::decode(buf, &mut Anderson::new())
    }

    fn decode(buf: &[u8], history: &mut Anderson) -> Result<Self, CheckpointError> {
        let mut c = Cursor { buf, pos: 0 };
        let magic = c.take(8)?;
        if magic != MAGIC && magic != MAGIC_V1 {
            if &magic[..6] == FAMILY {
                return Err(CheckpointError::UnsupportedVersion {
                    found: magic[6..8].try_into().unwrap(),
                    supported: MAGIC[6..8].try_into().unwrap(),
                });
            }
            return Err(CheckpointError::BadMagic);
        }
        let iteration = c.u64()? as usize;
        let mixing_current = c.f64()?;
        let has_prev_res = c.u64()? != 0;
        let prev_res_val = c.f64()?;
        let decrease_streak = c.u64()? as u32;
        let residuals = c.f64_vec()?;
        let current_history = c.f64_vec()?;
        let sigma = ElectronSelfEnergy {
            lesser: c.tensor()?,
            greater: c.tensor()?,
        };
        let pi = PhononSelfEnergy {
            lesser: c.tensor()?,
            greater: c.tensor()?,
        };
        history.clear();
        if magic == MAGIC {
            let packed =
                sigma.lesser.len() + sigma.greater.len() + pi.lesser.len() + pi.greater.len();
            c.history(packed, history)?;
        }
        let prev_gl = if c.u64()? != 0 {
            Some(c.tensor()?)
        } else {
            None
        };
        history.restored_at = Some(iteration);
        Ok(ScfCheckpoint {
            iteration,
            mixing_current,
            prev_residual: has_prev_res.then_some(prev_res_val),
            decrease_streak,
            residuals,
            current_history,
            sigma,
            pi,
            prev_gl,
        })
    }

    /// Write atomically: serialize to `<path>.tmp`, then rename over
    /// `path`, so readers only ever observe complete checkpoints.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_with(path, None)
    }

    /// [`ScfCheckpoint::save`] carrying an accelerated solve's Anderson
    /// history.
    pub(crate) fn save_with(&self, path: &Path, history: Option<&Anderson>) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.encode(history))?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        counters::add(Counter::HealthCheckpointWrites, 1);
        qt_telemetry::journal::emit(qt_telemetry::EventKind::CheckpointWrite);
        Ok(())
    }

    /// Load a checkpoint written by [`ScfCheckpoint::save`] (or by an
    /// unaccelerated solve), discarding any Anderson history.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::load_with_history(path, &mut Anderson::new())
    }

    /// Load a checkpoint and restore its Anderson history into `history`
    /// (empty for a version-1 file or an unaccelerated solve). Passing the
    /// same `history` as [`crate::scf::ScfOptions::accel`] with this
    /// checkpoint as `resume` continues the accelerated solve bit for bit.
    pub fn load_with_history(path: &Path, history: &mut Anderson) -> Result<Self, CheckpointError> {
        let mut buf = Vec::new();
        fs::File::open(path)?.read_to_end(&mut buf)?;
        Self::decode(&buf, history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SimParams;

    fn sample() -> ScfCheckpoint {
        let p = SimParams::test_small();
        let mut sigma = ElectronSelfEnergy::zeros(&p);
        sigma.lesser.as_mut_slice()[3] = c64(1.25e-3, -7.5);
        let mut pi = PhononSelfEnergy::zeros(&p);
        pi.greater.as_mut_slice()[0] = c64(f64::MIN_POSITIVE, 1.0);
        let mut gl = Tensor::zeros(&[2, 3]);
        gl.as_mut_slice()[5] = c64(0.1, 0.2);
        ScfCheckpoint {
            iteration: 7,
            mixing_current: 0.125,
            prev_residual: Some(3.25e-4),
            decrease_streak: 2,
            residuals: vec![0.5, 0.25, 3.25e-4],
            current_history: vec![1.0, 1.5, 1.25],
            sigma,
            pi,
            prev_gl: Some(gl),
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample();
        let back = ScfCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.iteration, ck.iteration);
        assert_eq!(back.mixing_current.to_bits(), ck.mixing_current.to_bits());
        assert_eq!(back.prev_residual, ck.prev_residual);
        assert_eq!(back.decrease_streak, ck.decrease_streak);
        assert_eq!(back.residuals, ck.residuals);
        assert_eq!(back.current_history, ck.current_history);
        assert_eq!(back.sigma.lesser.as_slice(), ck.sigma.lesser.as_slice());
        assert_eq!(back.sigma.greater.as_slice(), ck.sigma.greater.as_slice());
        assert_eq!(back.pi.lesser.as_slice(), ck.pi.lesser.as_slice());
        assert_eq!(back.pi.greater.as_slice(), ck.pi.greater.as_slice());
        assert_eq!(
            back.prev_gl.as_ref().unwrap().as_slice(),
            ck.prev_gl.as_ref().unwrap().as_slice()
        );
        assert_eq!(
            back.prev_gl.as_ref().unwrap().shape(),
            ck.prev_gl.as_ref().unwrap().shape()
        );
    }

    #[test]
    fn anderson_history_roundtrips_bitwise() {
        let ck = sample();
        let n = ck.sigma.lesser.len()
            + ck.sigma.greater.len()
            + ck.pi.lesser.len()
            + ck.pi.greater.len();
        let col = |s: f32| Column {
            dx: (0..n).map(|i| [i as f32 * s, -s]).collect(),
            df: (0..n).map(|i| [s, i as f32 / 3.0]).collect(),
        };
        let mut h = Anderson::new();
        h.cols = vec![col(0.5), col(1.5)];
        h.pending = Some(col(-2.0));
        let bytes = ck.encode(Some(&h));
        let mut back = Anderson::new();
        ScfCheckpoint::decode(&bytes, &mut back).unwrap();
        assert_eq!(back.restored_at, Some(ck.iteration));
        assert_eq!(back.depth(), 2);
        let bits = |c: &Column| {
            c.dx.iter()
                .chain(&c.df)
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let (got, want): (Vec<_>, Vec<_>) = (
            back.cols.iter().chain(&back.pending).map(bits).collect(),
            h.cols.iter().chain(&h.pending).map(bits).collect(),
        );
        assert_eq!(got, want);
        // The history sits between Π≷ and prev_gl; a plain load skips it.
        let plain = ScfCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(plain.residuals, ck.residuals);
        assert_eq!(
            plain.prev_gl.unwrap().as_slice(),
            ck.prev_gl.as_ref().unwrap().as_slice()
        );
        // A history whose length disagrees with the self-energies is refused.
        h.cols.clear();
        h.pending = Some(Column {
            dx: vec![[0.0; 2]; n - 1],
            df: vec![[0.0; 2]; n - 1],
        });
        assert!(matches!(
            ScfCheckpoint::from_bytes(&ck.encode(Some(&h))),
            Err(CheckpointError::Invalid(_))
        ));
    }

    #[test]
    fn save_load_via_disk_and_atomic_tmp() {
        let dir = std::env::temp_dir().join("qt-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scf.ckpt");
        let writes0 = counters::total(Counter::HealthCheckpointWrites);
        let ck = sample();
        ck.save(&path).unwrap();
        assert!(counters::total(Counter::HealthCheckpointWrites) > writes0);
        assert!(!path.with_extension("tmp").exists(), "tmp must be renamed");
        let back = ScfCheckpoint::load(&path).unwrap();
        assert_eq!(back.residuals, ck.residuals);
        // Overwrite (second save) must also succeed atomically.
        ck.save(&path).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(ScfCheckpoint::from_bytes(b"garbage!").is_err());
        let ck = sample();
        let mut bytes = ck.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(ScfCheckpoint::from_bytes(&bytes).is_err());
        // Absurd length prefix: flip the residual-count field to u64::MAX.
        let mut bytes = ck.to_bytes();
        // magic(8) + iter(8) + mix(8) + flag(8) + prev(8) + streak(8) = 48.
        bytes[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ScfCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn error_variants_classify_the_corruption() {
        let ck = sample();
        let good = ck.to_bytes();

        // Wrong family prefix entirely → BadMagic.
        let mut bytes = good.clone();
        bytes[..8].copy_from_slice(b"NOTCKPT!");
        assert!(matches!(
            ScfCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));

        // Right family, future version digits → UnsupportedVersion that
        // names both versions, NOT BadMagic.
        let mut bytes = good.clone();
        bytes[..8].copy_from_slice(b"QTCKPT99");
        match ScfCheckpoint::from_bytes(&bytes) {
            Err(CheckpointError::UnsupportedVersion { found, supported }) => {
                assert_eq!(&found, b"99");
                assert_eq!(&supported, b"02");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }

        // Mid-scalar-header truncation → Truncated with honest byte counts
        // (50 bytes ends two bytes into the decrease-streak field).
        match ScfCheckpoint::from_bytes(&good[..50]) {
            Err(CheckpointError::Truncated { needed, available }) => {
                assert_eq!(needed, 8);
                assert_eq!(available, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A cut inside a tensor body is caught by the shape-vs-file bound
        // before any element read.
        assert!(matches!(
            ScfCheckpoint::from_bytes(&good[..good.len() - 5]),
            Err(CheckpointError::Invalid(_))
        ));

        // A file shorter than the magic itself is also Truncated.
        assert!(matches!(
            ScfCheckpoint::from_bytes(b"QTCK"),
            Err(CheckpointError::Truncated { .. })
        ));

        // Tensor shape that cannot fit in the file → Invalid before any
        // allocation is attempted. The sigma tensor header starts after the
        // scalar block and the two f64 vecs; corrupt its first dim.
        let mut bytes = good.clone();
        let sigma_hdr = 48 + 8 + 8 * ck.residuals.len() + 8 + 8 * ck.current_history.len();
        // ndim stays, first dimension becomes enormous.
        bytes[sigma_hdr + 8..sigma_hdr + 16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            ScfCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::Invalid(_))
        ));

        // Missing file → Io, and `source()` exposes the underlying error.
        let err = ScfCheckpoint::load(Path::new("/nonexistent/qt.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
        assert!(std::error::Error::source(&err).is_some());
        // Every variant renders a human-readable message.
        assert!(format!("{err}").contains("I/O"));
    }
}
