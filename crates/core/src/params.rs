//! Simulation parameters (Table 1 of the paper).
//!
//! `SimParams` bundles every dimension of the problem. The paper's ranges
//! are enforced by [`SimParams::validate_paper_ranges`]; the laptop-scale
//! presets used by tests and examples keep the same *structure* (all code
//! paths exercised) at a few percent of the size.

/// Degrees of freedom for crystal vibrations (fixed at 3 in the paper).
pub const N3D: usize = 3;

/// Full parameter set of a dissipative quantum-transport simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimParams {
    /// Number of electron momentum points (`Nkz`, 1–21).
    pub nkz: usize,
    /// Number of phonon momentum points (`Nqz`, 1–21).
    pub nqz: usize,
    /// Number of electron energy points (`NE`, 700–1500 at paper scale).
    pub ne: usize,
    /// Number of phonon frequencies (`Nω`, 10–100 at paper scale).
    pub nw: usize,
    /// Total number of atoms (`NA`).
    pub na: usize,
    /// Neighbors considered per atom (`NB`, 4–50).
    pub nb: usize,
    /// Orbitals per atom (`Norb`, 1–30).
    pub norb: usize,
    /// Number of RGF blocks (`bnum`); must divide `na`.
    pub bnum: usize,
}

impl SimParams {
    /// Tiny structurally-complete preset for unit tests.
    pub fn test_small() -> Self {
        SimParams {
            nkz: 3,
            nqz: 3,
            ne: 12,
            nw: 3,
            na: 16,
            nb: 4,
            norb: 2,
            bnum: 4,
        }
    }

    /// The 4,864-atom silicon structure used throughout §5
    /// (`NB = 34`, `Norb = 12`, `NE = 706`, `Nω = 70`).
    pub fn paper_si_4864(nkz: usize) -> Self {
        SimParams {
            nkz,
            nqz: nkz,
            ne: 706,
            nw: 70,
            na: 4864,
            nb: 34,
            norb: 12,
            bnum: 152,
        }
    }

    /// The 10,240-atom extreme-scale structure of Table 8
    /// (`NE = 1000`, `Nω = 70`). The fin is 4.8 nm wide versus 2.1 nm for
    /// the 4,864-atom device, so each transport slab holds ~2.3× more
    /// atoms (`bnum = 160`, 64 atoms per block).
    pub fn paper_si_10240(nkz: usize) -> Self {
        SimParams {
            nkz,
            nqz: nkz,
            ne: 1000,
            nw: 70,
            na: 10240,
            nb: 34,
            norb: 12,
            bnum: 160,
        }
    }

    /// Atoms per RGF block.
    pub fn atoms_per_block(&self) -> usize {
        self.na / self.bnum
    }

    /// Electron block order (`NA/bnum · Norb`).
    pub fn e_block_size(&self) -> usize {
        self.atoms_per_block() * self.norb
    }

    /// Phonon block order (`NA/bnum · 3`).
    pub fn ph_block_size(&self) -> usize {
        self.atoms_per_block() * N3D
    }

    /// Basic structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.na == 0 || self.bnum == 0 {
            return Err("na and bnum must be positive".into());
        }
        if !self.na.is_multiple_of(self.bnum) {
            return Err(format!("bnum {} must divide na {}", self.bnum, self.na));
        }
        if self.bnum < 2 {
            return Err("need at least 2 RGF blocks (two contacts)".into());
        }
        if self.nb >= self.na {
            return Err("nb must be smaller than na".into());
        }
        if self.nkz == 0 || self.nqz == 0 || self.ne == 0 || self.nw == 0 || self.norb == 0 {
            return Err("all dimensions must be positive".into());
        }
        if self.nw >= self.ne {
            return Err("nw must be smaller than ne (energy window)".into());
        }
        Ok(())
    }

    /// Check against the ranges of Table 1 (paper-scale runs only).
    pub fn validate_paper_ranges(&self) -> Result<(), String> {
        self.validate()?;
        let checks = [
            ("Nkz", self.nkz, 1, 21),
            ("Nqz", self.nqz, 1, 21),
            ("NE", self.ne, 700, 1500),
            ("Nw", self.nw, 10, 100),
            ("NB", self.nb, 4, 50),
            ("Norb", self.norb, 1, 30),
        ];
        for (name, v, lo, hi) in checks {
            if v < lo || v > hi {
                return Err(format!("{name} = {v} outside Table 1 range [{lo}, {hi}]"));
            }
        }
        Ok(())
    }

    /// Size in bytes of the electron Green's-function tensor
    /// `[Nkz, NE, NA, Norb, Norb]` of complex128.
    pub fn g_tensor_bytes(&self) -> u64 {
        16 * (self.nkz * self.ne * self.na * self.norb * self.norb) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(SimParams::test_small().validate().is_ok());
        assert!(SimParams::paper_si_4864(7).validate_paper_ranges().is_ok());
        assert!(SimParams::paper_si_10240(21)
            .validate_paper_ranges()
            .is_ok());
    }

    #[test]
    fn invalid_block_count_rejected() {
        let mut p = SimParams::test_small();
        p.bnum = 3; // does not divide 16
        assert!(p.validate().is_err());
        p.bnum = 1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn paper_ranges_enforced() {
        let mut p = SimParams::paper_si_4864(7);
        p.nkz = 25;
        assert!(p.validate_paper_ranges().is_err());
        let mut p = SimParams::paper_si_4864(7);
        p.ne = 100;
        assert!(p.validate_paper_ranges().is_err());
    }

    #[test]
    fn derived_block_sizes() {
        let p = SimParams::paper_si_4864(7);
        assert_eq!(p.atoms_per_block(), 32);
        assert_eq!(p.e_block_size(), 32 * 12);
        assert_eq!(p.ph_block_size(), 96);
    }

    #[test]
    fn tensor_sizes_match_paper_magnitudes() {
        // The 4,864-atom G≷ tensor at Nkz=7, NE=706 is ~51 GiB (×2 for
        // lesser+greater) — the memory pressure §1 describes.
        let p = SimParams::paper_si_4864(7);
        let gib = p.g_tensor_bytes() as f64 / (1u64 << 30) as f64;
        assert!(gib > 45.0 && gib < 60.0, "G tensor: {gib} GiB");
    }
}
