//! Cartesian process topologies (the "topologies" part of §4.4).
//!
//! `MPI_Cart_create` and friends, built on the communicator table: the grid
//! communicator is carved out of the parent with [`C3Ctx::comm_split`]
//! (whose membership is recorded and checkpointed), and the topology itself —
//! dimensions, periodicity, the rank↔coordinate maps — is pure arithmetic
//! over the grid communicator's local ranks, so it needs no extra recovery
//! machinery: the application re-derives it from data it saves like any
//! other state (or simply recreates it, since creation is deterministic).

use crate::api::C3Error;
use crate::comms::C3Comm;
use crate::C3Ctx;
use crate::Result;

/// A Cartesian view of a communicator (row-major rank order, like MPI).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CartTopo {
    /// The grid communicator (exactly `dims.iter().product()` members).
    pub comm: C3Comm,
    /// Extent of each dimension.
    pub dims: Vec<usize>,
    /// Per-dimension periodicity.
    pub periodic: Vec<bool>,
}

impl CartTopo {
    /// Total grid size.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of grid rank `rank` (row-major: the last dimension varies
    /// fastest).
    pub fn coords_of(&self, rank: usize) -> Vec<usize> {
        let mut rest = rank;
        let mut coords = vec![0; self.dims.len()];
        for (i, &d) in self.dims.iter().enumerate().rev() {
            coords[i] = rest % d;
            rest /= d;
        }
        coords
    }

    /// Grid rank of `coords` (inverse of [`Self::coords_of`]).
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        let mut rank = 0;
        for (i, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[i]);
            rank = rank * self.dims[i] + c;
        }
        rank
    }

    /// `MPI_Cart_shift` from the position of grid rank `me`: the grid ranks
    /// of the source (displacement `-disp`) and destination (`+disp`)
    /// neighbours along `dim`, `None` at a non-periodic boundary.
    pub fn shift(&self, me: usize, dim: usize, disp: i64) -> (Option<usize>, Option<usize>) {
        let step = |origin: i64, delta: i64| -> Option<usize> {
            let d = self.dims[dim] as i64;
            let target = origin + delta;
            if self.periodic[dim] {
                Some(target.rem_euclid(d) as usize)
            } else if (0..d).contains(&target) {
                Some(target as usize)
            } else {
                None
            }
        };
        let mut coords = self.coords_of(me);
        let origin = coords[dim] as i64;
        let mk = |c: Option<usize>, coords: &mut Vec<usize>| {
            c.map(|ci| {
                coords[dim] = ci;
                self.rank_of(coords)
            })
        };
        let src = mk(step(origin, -disp), &mut coords);
        coords = self.coords_of(me);
        let dst = mk(step(origin, disp), &mut coords);
        (src, dst)
    }
}

impl<'a> C3Ctx<'a> {
    /// `MPI_Cart_create`: carve a `dims` grid out of `parent`. Members of
    /// `parent` with local rank below the grid size join (in parent-rank
    /// order, row-major); the rest get `None` (MPI_COMM_NULL). Collective
    /// over `parent`.
    pub fn cart_create(
        &mut self,
        parent: C3Comm,
        dims: &[usize],
        periodic: &[bool],
    ) -> Result<Option<CartTopo>> {
        if dims.is_empty() || dims.len() != periodic.len() {
            return Err(C3Error::Protocol(
                "cart_create needs matching, non-empty dims and periodic".into(),
            ));
        }
        let grid: usize = dims.iter().product();
        let psize = self.comm_size(parent)?;
        if grid == 0 || grid > psize {
            return Err(C3Error::Protocol(format!(
                "cart_create: grid of {grid} does not fit communicator of {psize}"
            )));
        }
        let my_local = self
            .comm_rank(parent)?
            .ok_or_else(|| C3Error::Protocol("cart_create caller must be a member".into()))?;
        let color = if my_local < grid { Some(0) } else { None };
        let sub = self.comm_split(parent, color, my_local as i64)?;
        Ok(sub.map(|comm| CartTopo { comm, dims: dims.to_vec(), periodic: periodic.to_vec() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(dims: &[usize], periodic: &[bool]) -> CartTopo {
        CartTopo { comm: C3Comm(1), dims: dims.to_vec(), periodic: periodic.to_vec() }
    }

    #[test]
    fn coords_roundtrip_row_major() {
        let t = topo(&[2, 3, 4], &[false, false, false]);
        for r in 0..t.size() {
            assert_eq!(t.rank_of(&t.coords_of(r)), r);
        }
        // Row-major: the last dimension varies fastest.
        assert_eq!(t.coords_of(0), vec![0, 0, 0]);
        assert_eq!(t.coords_of(1), vec![0, 0, 1]);
        assert_eq!(t.coords_of(4), vec![0, 1, 0]);
        assert_eq!(t.coords_of(12), vec![1, 0, 0]);
    }

    #[test]
    fn shift_respects_boundaries() {
        let t = topo(&[3, 3], &[false, true]);
        // Rank 0 = (0,0). Dim 0 non-periodic: no source above.
        let (src, dst) = t.shift(0, 0, 1);
        assert_eq!(src, None);
        assert_eq!(dst, Some(t.rank_of(&[1, 0])));
        // Dim 1 periodic: wraps.
        let (src, dst) = t.shift(0, 1, 1);
        assert_eq!(src, Some(t.rank_of(&[0, 2])));
        assert_eq!(dst, Some(t.rank_of(&[0, 1])));
    }

    #[test]
    fn shift_by_negative_and_large_displacements() {
        let t = topo(&[4], &[true]);
        let (src, dst) = t.shift(1, 0, -1);
        assert_eq!((src, dst), (Some(2), Some(0)));
        let (src, dst) = t.shift(1, 0, 5); // 5 ≡ 1 (mod 4)
        assert_eq!((src, dst), (Some(0), Some(2)));
    }
}
