//! Distributed vectors and sparse matrices over any [`CommBackend`]
//! (virtual-time simulator or real-threads).
//!
//! Data is distributed by contiguous row blocks
//! ([`BlockDistribution`]). Vector dot
//! products and norms are global collectives (the operations the RBSP
//! experiments target); the sparse matrix-vector product communicates only
//! with the ranks that own referenced columns (neighborhood communication).

use std::collections::BTreeMap;

use resilient_linalg::LocalOps;
use resilient_linalg::{CooMatrix, CsrMatrix, LuFactors, SellMatrix, SELL_DEFAULT_SIGMA};
use resilient_runtime::{BlockDistribution, CommBackend, Result, RuntimeError};

/// Tag space used by the SpMV ghost exchange.
const GHOST_TAG: i32 = 1 << 18;

/// One FNV-1a step (64-bit) over an 8-byte word.
fn fnv1a(h: &mut u64, v: u64) {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// A block-row distributed vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DistVector {
    /// Locally owned entries.
    pub local: Vec<f64>,
    dist: BlockDistribution,
    rank: usize,
}

impl DistVector {
    /// Create this rank's part of a global vector of length `n`, filled by
    /// `f(global_index)`.
    pub fn from_fn<C: CommBackend>(comm: &C, n: usize, f: impl Fn(usize) -> f64) -> Self {
        let dist = BlockDistribution::new(n, comm.size());
        let rank = comm.rank();
        let local = dist.range(rank).map(f).collect();
        Self { local, dist, rank }
    }

    /// This rank's part of a globally replicated slice.
    pub fn from_global<C: CommBackend>(comm: &C, global: &[f64]) -> Self {
        Self::from_fn(comm, global.len(), |i| global[i])
    }

    /// A distributed zero vector of global length `n`.
    pub fn zeros<C: CommBackend>(comm: &C, n: usize) -> Self {
        Self::from_fn(comm, n, |_| 0.0)
    }

    /// Locally owned length.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// The block distribution.
    pub fn distribution(&self) -> BlockDistribution {
        self.dist
    }

    /// Local partial dot product (no communication).
    fn local_dot(&self, other: &DistVector) -> f64 {
        resilient_linalg::vector::dot(&self.local, &other.local)
    }

    /// Global dot product (one allreduce). Charges the `2n` FLOPs of the
    /// local partial product; this is the *only* place vector reductions
    /// charge arithmetic.
    pub fn dot<C: CommBackend>(&self, comm: &mut C, other: &DistVector) -> Result<f64> {
        comm.charge_flops(2 * self.local.len());
        comm.global_dot(self.local_dot(other))
    }

    /// `self ← self + alpha · other` (local only).
    pub fn axpy(&mut self, alpha: f64, other: &DistVector) {
        resilient_linalg::vector::axpy(alpha, &other.local, &mut self.local);
    }

    /// `self ← alpha · self` (local only).
    pub fn scale(&mut self, alpha: f64) {
        resilient_linalg::vector::scale(alpha, &mut self.local);
    }

    /// Gather the full global vector on every rank (one allgather); intended
    /// for verification and small problems.
    pub fn gather_global<C: CommBackend>(&self, comm: &mut C) -> Result<Vec<f64>> {
        let parts = comm.allgather(&self.local)?;
        Ok(parts.into_iter().flatten().collect())
    }
}

/// A block of `k` block-row distributed vectors sharing one distribution:
/// the multi-RHS surface of the batched solve path.
///
/// Local storage is packed column-major — column `c` occupies
/// `local[c * n_local..(c + 1) * n_local]` — exactly the layout the blocked
/// [`LocalOps`] kernels (`dot_blocks`, `*_blocks`, the `spmm_*` output) are
/// specified over, so the multi-vector can be handed to them without
/// copies. The `spmm_*` input is row-interleaved; [`DistCsr::apply_block_into`]
/// writes that copy of the owned rows while its halo messages are in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct DistMultiVector {
    /// Locally owned entries, packed column-major (`k` columns of length
    /// `local_rows`).
    pub local: Vec<f64>,
    k: usize,
    dist: BlockDistribution,
    rank: usize,
}

impl DistMultiVector {
    /// Create this rank's part of `k` global vectors of length `n`, filled
    /// by `f(column, global_index)`.
    pub fn from_fn<C: CommBackend>(
        comm: &C,
        n: usize,
        k: usize,
        f: impl Fn(usize, usize) -> f64,
    ) -> Self {
        let dist = BlockDistribution::new(n, comm.size());
        let rank = comm.rank();
        let mut local = Vec::with_capacity(k * dist.range(rank).len());
        for c in 0..k {
            local.extend(dist.range(rank).map(|i| f(c, i)));
        }
        Self {
            local,
            k,
            dist,
            rank,
        }
    }

    /// A distributed zero multi-vector: `k` columns of global length `n`.
    pub fn zeros<C: CommBackend>(comm: &C, n: usize, k: usize) -> Self {
        Self::from_fn(comm, n, k, |_, _| 0.0)
    }

    /// A zero multi-vector with the shape and distribution of `proto`,
    /// allocated zeroed (not copied from `proto`, then overwritten).
    pub(crate) fn zeros_like(proto: &DistMultiVector) -> Self {
        Self {
            local: vec![0.0; proto.local.len()],
            ..*proto
        }
    }

    /// Pack `k` single vectors (which must share one distribution) into a
    /// multi-vector.
    pub fn from_columns(cols: &[DistVector]) -> Self {
        assert!(!cols.is_empty(), "from_columns: empty column set");
        let dist = cols[0].dist;
        let rank = cols[0].rank;
        let n_local = cols[0].local.len();
        let mut local = Vec::with_capacity(cols.len() * n_local);
        for c in cols {
            assert_eq!(c.local.len(), n_local, "from_columns: ragged columns");
            local.extend_from_slice(&c.local);
        }
        Self {
            local,
            k: cols.len(),
            dist,
            rank,
        }
    }

    /// Number of columns (right-hand sides) in the block.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Global length of each column.
    pub(crate) fn global_len(&self) -> usize {
        self.dist.n
    }

    /// Locally owned length of each column.
    pub fn local_rows(&self) -> usize {
        self.local.len().checked_div(self.k).unwrap_or(0)
    }

    /// The shared block distribution.
    pub fn distribution(&self) -> BlockDistribution {
        self.dist
    }

    /// Column `c`'s locally owned entries.
    pub fn col(&self, c: usize) -> &[f64] {
        let n = self.local_rows();
        &self.local[c * n..(c + 1) * n]
    }

    /// Mutable view of column `c`'s locally owned entries.
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        let n = self.local_rows();
        &mut self.local[c * n..(c + 1) * n]
    }

    /// Extract column `c` as a standalone [`DistVector`].
    pub fn column(&self, c: usize) -> DistVector {
        DistVector {
            local: self.col(c).to_vec(),
            dist: self.dist,
            rank: self.rank,
        }
    }

    /// A vector distributed like the columns, holding no entries: the
    /// shell a borrowed column buffer is swapped into.
    pub(crate) fn empty_column(&self) -> DistVector {
        DistVector {
            local: Vec::new(),
            dist: self.dist,
            rank: self.rank,
        }
    }

    /// A vector as a one-column block, moved in without a copy.
    pub(crate) fn from_vector(v: DistVector) -> Self {
        Self {
            local: v.local,
            k: 1,
            dist: v.dist,
            rank: v.rank,
        }
    }

    /// The one column of a one-column block, moved out without a copy.
    ///
    /// # Panics
    /// If the block does not have exactly one column.
    pub(crate) fn into_vector(self) -> DistVector {
        assert_eq!(self.k, 1, "into_vector: a block of {} columns", self.k);
        DistVector {
            local: self.local,
            dist: self.dist,
            rank: self.rank,
        }
    }
}

/// The reusable buffers of a distributed operator application. Nothing
/// here is read across calls: each application overwrites what it uses, and
/// the buffers only keep their capacity so the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct HaloScratch {
    /// The row-interleaved copy of the owned rows of a block of `k > 1`
    /// columns (entry `j` of column `c` at `j·k + c`, the `spmm_*` input
    /// layout of [`LocalOps`]), which the interior rows read. A single
    /// column is read in place and leaves this empty.
    owned: Vec<f64>,
    /// The compact input of the boundary rows, row-interleaved like
    /// `owned`: first the owned rows those rows read, then the ghost rows
    /// the neighbours' messages fill.
    boundary: Vec<f64>,
    /// Packing buffer for the message to one neighbour: its send-list rows,
    /// `k` values each.
    payload: Vec<f64>,
}

/// A block-row distributed CSR matrix with precomputed ghost-exchange lists.
///
/// The SpMV runs on two SELL-C-σ parts of the local rows, split once at
/// construction: *interior* rows read only owned columns, and *boundary*
/// rows read at least one ghost. Each part writes its rows straight into
/// their slots of the product. The interior part reads the owned input in
/// place while the halo messages are in flight; the boundary part reads a
/// compact input of the owned columns it needs followed by the ghosts.
#[derive(Debug, Clone)]
pub struct DistCsr {
    /// Local rows, with columns renumbered: `0..n_local` are the locally
    /// owned columns (same order as the owned global range), `n_local..`
    /// are ghost columns in ascending global order. Block
    /// extraction, ABFT row access, norm bounds and the fingerprint read
    /// it; the SpMV runs on the two parts below.
    local: CsrMatrix,
    dist: BlockDistribution,
    n_local: usize,
    /// Ranks this rank exchanges with during SpMV (symmetric list).
    neighbors: Vec<usize>,
    /// For each neighbor (same order as `neighbors`): local indices of owned
    /// entries that must be sent to it.
    send_lists: Vec<Vec<usize>>,
    /// For each neighbor: positions in the ghost array that its data fills.
    recv_lists: Vec<Vec<usize>>,
    /// FLOPs per local SpMV.
    flops: usize,
    /// The rows reading only owned columns, over the `n_local` owned
    /// inputs.
    interior: SellMatrix,
    /// The rows reading a ghost, over the compact input: entry `t <
    /// boundary_owned.len()` is owned column `boundary_owned[t]`, entry
    /// `boundary_owned.len() + g` is ghost `g`.
    boundary: SellMatrix,
    /// The owned columns the boundary rows read, ascending.
    boundary_owned: Vec<usize>,
}

impl DistCsr {
    /// Build the local part of `global` for this rank and negotiate the
    /// ghost-exchange pattern with the other ranks (collective call: every
    /// rank must call it with the same matrix). The local rows are split
    /// into the interior and boundary SELL-C-σ parts with the default
    /// sort scope σ ([`DistCsr::with_sell_layout`] re-packs them).
    ///
    /// # Errors
    /// [`RuntimeError::InvalidArgument`], on every rank and before any
    /// collective, if `global` is not square.
    pub fn from_global<C: CommBackend>(comm: &mut C, global: &CsrMatrix) -> Result<Self> {
        let n = global.nrows();
        if global.ncols() != n {
            return Err(RuntimeError::InvalidArgument(format!(
                "distributed matrices must be square, got {n} × {}",
                global.ncols()
            )));
        }
        let dist = BlockDistribution::new(n, comm.size());
        let rank = comm.rank();
        let my_range = dist.range(rank);
        let n_local = my_range.len();

        // Collect ghost (externally owned) column indices referenced by my rows.
        let mut ghost_set: BTreeMap<usize, usize> = BTreeMap::new();
        for i in my_range.clone() {
            let (cols, _) = global.row(i);
            for &j in cols {
                if !my_range.contains(&j) {
                    ghost_set.entry(j).or_insert(0);
                }
            }
        }
        let ghost_globals: Vec<usize> = ghost_set.keys().copied().collect();
        for (pos, g) in ghost_globals.iter().enumerate() {
            ghost_set.insert(*g, pos);
        }

        // Build the local matrix with renumbered columns.
        let mut coo = CooMatrix::new(n_local, n_local + ghost_globals.len());
        for (local_i, i) in my_range.clone().enumerate() {
            let (cols, vals) = global.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let local_j = if my_range.contains(&j) {
                    j - my_range.start
                } else {
                    n_local + ghost_set[&j]
                };
                coo.push(local_i, local_j, v);
            }
        }
        let local = coo.to_csr();
        let flops = local.spmv_flops();
        // Purely local, per rank: each rank packs its own rows.
        let (interior, boundary, boundary_owned) = split_parts(&local, n_local, SELL_DEFAULT_SIGMA);

        // Tell every rank which global indices we need (allgather of index
        // lists encoded as f64; exact for indices < 2^53).
        let needed_enc: Vec<f64> = ghost_globals.iter().map(|&g| g as f64).collect();
        let all_needs = comm.allgather(&needed_enc)?;

        // Work out, per peer, what I must send and what I will receive.
        let mut neighbors = Vec::new();
        let mut send_lists = Vec::new();
        let mut recv_lists = Vec::new();
        for (peer, peer_needs) in all_needs.iter().enumerate() {
            if peer == rank {
                continue;
            }
            // What peer needs from me:
            let send: Vec<usize> = peer_needs
                .iter()
                .map(|&g| g as usize)
                .filter(|g| my_range.contains(g))
                .map(|g| g - my_range.start)
                .collect();
            // What I need from peer:
            let peer_range = dist.range(peer);
            let recv: Vec<usize> = ghost_globals
                .iter()
                .enumerate()
                .filter(|(_, &g)| peer_range.contains(&g))
                .map(|(pos, _)| pos)
                .collect();
            if !send.is_empty() || !recv.is_empty() {
                neighbors.push(peer);
                send_lists.push(send);
                recv_lists.push(recv);
            }
        }

        Ok(Self {
            local,
            dist,
            n_local,
            neighbors,
            send_lists,
            recv_lists,
            flops,
            interior,
            boundary,
            boundary_owned,
        })
    }

    /// Re-pack both SpMV parts with sort scope `sigma`. Purely local (each
    /// rank repacks its own rows); results are bit-identical for every σ,
    /// so ranks need not agree on it.
    ///
    /// # Panics
    /// If `sigma` is zero.
    pub fn with_sell_layout(mut self, sigma: usize) -> Self {
        (self.interior, self.boundary, self.boundary_owned) =
            split_parts(&self.local, self.n_local, sigma);
        self
    }

    /// A per-rank checksum over this rank's local structure **and** values
    /// (FNV-1a over dimensions, column indices and value bit patterns).
    /// Two `DistCsr`s built from the same global matrix on the same
    /// communicator size hash equal on every rank; any structural or
    /// numerical change — or a different row partition — changes it. The
    /// [`SetupCache`](crate::kernel::SetupCache) keys preconditioner setup
    /// off this.
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv1a(&mut h, self.dist.n as u64);
        fnv1a(&mut h, self.n_local as u64);
        for i in 0..self.local.nrows() {
            let (cols, vals) = self.local.row(i);
            fnv1a(&mut h, cols.len() as u64);
            for (&j, &v) in cols.iter().zip(vals) {
                fnv1a(&mut h, j as u64);
                fnv1a(&mut h, v.to_bits());
            }
        }
        h
    }

    /// Number of locally owned rows.
    pub fn local_rows(&self) -> usize {
        self.n_local
    }

    /// Global dimension.
    pub(crate) fn global_dim(&self) -> usize {
        self.dist.n
    }

    /// Ranks this rank communicates with during SpMV.
    pub fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    /// FLOPs per SpMV application (local part).
    pub fn flops_per_apply(&self) -> usize {
        self.flops
    }

    /// The LU factors of this rank's `n_local × n_local` diagonal block —
    /// the locally owned rows restricted to the locally owned columns
    /// (ghost couplings dropped), read straight from the owned rows. This
    /// is what a block-Jacobi preconditioner applies; factoring it is
    /// purely local, no communication.
    pub(crate) fn factor_diagonal_block(&self) -> LuFactors {
        // Local columns `n_local..` are the ghosts.
        LuFactors::factor_csr_leading(&self.local, self.n_local)
    }

    /// This rank's diagonal block as a matrix of its own: what
    /// [`DistCsr::factor_diagonal_block`] factors, copied out.
    #[cfg(test)]
    pub(crate) fn local_diagonal_block(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.n_local, self.n_local);
        for i in 0..self.local.nrows() {
            let (cols, vals) = self.local.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j < self.n_local {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// This rank's contribution to the global ∞-norm: the maximum absolute
    /// row sum over locally owned rows (rows are complete — owned plus ghost
    /// columns — so an allreduce-Max of this value is the exact global
    /// ∞-norm).
    pub fn local_norm_inf(&self) -> f64 {
        (0..self.local.nrows())
            .map(|i| self.local.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Distributed SpMV: `y = A·x`, with ghost exchange and virtual-time
    /// accounting for the local arithmetic.
    pub fn apply<C: CommBackend>(&self, comm: &mut C, x: &DistVector) -> Result<DistVector> {
        self.apply_with(
            comm,
            x,
            resilient_linalg::scalar_ops(),
            &mut HaloScratch::default(),
        )
    }

    /// [`RuntimeError::InvalidArgument`] naming `what` unless `v` is
    /// distributed like this operator's rows — the check every solve entry
    /// point runs on its vector arguments before posting anything.
    pub(crate) fn check_operand(&self, what: &str, v: &DistVector) -> Result<()> {
        self.check_layout(what, v.distribution(), v.local_len())
    }

    /// [`DistCsr::check_operand`] for every column of `v`: each must be
    /// distributed like this operator's rows, and `v.local` must hold
    /// exactly `k` of them.
    pub(crate) fn check_block_operand(&self, what: &str, v: &DistMultiVector) -> Result<()> {
        if v.dist == self.dist && v.local.len() == v.k * self.n_local {
            return Ok(());
        }
        Err(RuntimeError::InvalidArgument(format!(
            "{what} has global length {} ({} local entries in {} columns) but the operator is \
             {n} x {n} ({} local rows)",
            v.dist.n,
            v.local.len(),
            v.k,
            self.n_local,
            n = self.global_dim()
        )))
    }

    fn check_layout(&self, what: &str, dist: BlockDistribution, local_rows: usize) -> Result<()> {
        if dist == self.dist && local_rows == self.n_local {
            return Ok(());
        }
        Err(RuntimeError::InvalidArgument(format!(
            "{what} has global length {} ({local_rows} local rows) but the operator is \
             {n} x {n} ({} local rows)",
            dist.n,
            self.n_local,
            n = self.global_dim()
        )))
    }

    /// [`DistCsr::apply_into`] into a freshly allocated product vector.
    pub(crate) fn apply_with<C: CommBackend>(
        &self,
        comm: &mut C,
        x: &DistVector,
        ops: &dyn LocalOps,
        scratch: &mut HaloScratch,
    ) -> Result<DistVector> {
        let mut y = DistVector {
            local: vec![0.0; self.n_local],
            dist: self.dist,
            rank: comm.rank(),
        };
        self.apply_into(comm, x, ops, scratch, &mut y)?;
        Ok(y)
    }

    /// [`DistCsr::apply`] through an explicit [`LocalOps`] backend and
    /// reusable halo buffers, the product landing in the caller's `y`
    /// (every entry overwritten) — the form
    /// [`DistSpace`](crate::kernel::DistSpace) drives every iteration:
    /// nothing is allocated here. The interior rows are swept from
    /// `x.local` in place while the halo messages are in flight; see
    /// [`DistCsr::apply_block_into`] for the order of the steps.
    ///
    /// # Errors
    /// [`RuntimeError::InvalidArgument`], before anything is sent, if `x`
    /// or `y` is not distributed like the operator's rows. An `Err` from
    /// the halo exchange itself comes after the interior rows of `y` were
    /// written and before the boundary rows were: no caller reads `y`
    /// after an `Err`.
    pub fn apply_into<C: CommBackend>(
        &self,
        comm: &mut C,
        x: &DistVector,
        ops: &dyn LocalOps,
        scratch: &mut HaloScratch,
        y: &mut DistVector,
    ) -> Result<()> {
        self.check_operand("spmv: input `x`", x)?;
        self.check_operand("spmv: output `y`", y)?;
        let sweep = |a: &SellMatrix, x: &[f64], y: &mut [f64]| ops.spmv_sell(a, x, y);
        self.apply_split(comm, &x.local, 1, self.flops, scratch, &mut y.local, sweep)
    }

    /// Batched distributed SpMM: `Y = A·X` over all `k` columns of a
    /// [`DistMultiVector`] with **one** ghost exchange per neighbour (each
    /// message carries all `k` columns' boundary values) and one sweep of
    /// each part feeding all `k` outputs. Each output column is
    /// bit-identical to `DistCsr::apply_with` on that column alone.
    ///
    /// In order, one application:
    /// 1. posts the halo sends, each message packed from `x` as `k`-wide
    ///    rows;
    /// 2. sweeps the interior part while the messages are in flight,
    ///    reading `x.local` in place at `k = 1` and otherwise a
    ///    row-interleaved copy of the owned rows (entry `j` of column `c`
    ///    at `j·k + c`, the input layout of [`LocalOps::spmm_csr`]) made
    ///    here, then gathers the owned rows the boundary part reads;
    /// 3. receives each neighbour's ghost rows into the boundary part's
    ///    compact input;
    /// 4. charges the FLOPs;
    /// 5. sweeps the boundary part.
    ///
    /// Nothing is allocated here: the product lands in the caller's `y`
    /// (every entry overwritten, by exactly one of the two parts) and the
    /// [`HaloScratch`] buffers keep their capacity across calls. A block
    /// solve calls this once per iteration.
    ///
    /// `active` is the number of columns still charged for arithmetic:
    /// converged columns in a masked block solve stop paying FLOPs but keep
    /// their slot in the sweep (and in every collective), so the charge is
    /// `flops_per_apply × active`, not `× k`.
    ///
    /// # Errors
    /// [`RuntimeError::InvalidArgument`], before anything is sent, if `x`
    /// or `y` is not distributed like the operator's rows, or `y` does not
    /// hold as many columns as `x`. An `Err` from the halo exchange itself
    /// comes after the interior rows of `y` were written and before the
    /// boundary rows were: no caller reads `y` after an `Err`.
    pub fn apply_block_into<C: CommBackend>(
        &self,
        comm: &mut C,
        x: &DistMultiVector,
        ops: &dyn LocalOps,
        scratch: &mut HaloScratch,
        active: usize,
        y: &mut DistMultiVector,
    ) -> Result<()> {
        self.check_layout("spmm: input `x`", x.distribution(), x.local_rows())?;
        self.check_layout("spmm: output `y`", y.distribution(), y.local_rows())?;
        if y.k() != x.k() || y.local.len() != x.local.len() {
            return Err(RuntimeError::InvalidArgument(format!(
                "spmm: output `y` holds {} columns of {} local rows, input `x` {} of {}",
                y.k(),
                y.local_rows(),
                x.k(),
                x.local_rows()
            )));
        }
        let k = x.k();
        let sweep = |a: &SellMatrix, x: &[f64], y: &mut [f64]| ops.spmm_sell(a, k, x, y);
        let flops = self.flops * active;
        self.apply_split(comm, &x.local, k, flops, scratch, &mut y.local, sweep)
    }

    /// The one operator application behind [`DistCsr::apply_into`] and
    /// [`DistCsr::apply_block_into`], in the order the latter documents:
    /// `x` and `y` hold `k` column-major columns of the owned rows, and
    /// `sweep` runs one part over its row-interleaved input.
    #[allow(clippy::too_many_arguments)]
    fn apply_split<C: CommBackend>(
        &self,
        comm: &mut C,
        x: &[f64],
        k: usize,
        flops: usize,
        scratch: &mut HaloScratch,
        y: &mut [f64],
        sweep: impl Fn(&SellMatrix, &[f64], &mut [f64]),
    ) -> Result<()> {
        let n = self.n_local;
        let HaloScratch {
            owned,
            boundary,
            payload,
        } = scratch;
        // One message per neighbour for the whole block: the payload packs
        // each send-list row's k values together, k × |send_list| long.
        let my_rank = comm.rank();
        for (idx, &peer) in self.neighbors.iter().enumerate() {
            payload.clear();
            for &i in &self.send_lists[idx] {
                payload.extend((0..k).map(|c| x[c * n + i]));
            }
            comm.send_f64(peer, GHOST_TAG + my_rank as i32, payload)?;
        }
        // One column is its own interleaving.
        let input = if k <= 1 {
            x
        } else {
            owned.resize(k * n, 0.0);
            interleave_rows(x, k, owned);
            &owned[..]
        };
        sweep(&self.interior, input, y);
        // Every entry is overwritten below (the owned rows here, each ghost
        // row by exactly one neighbour's message), so stale contents are
        // fine.
        let b_own = self.boundary_owned.len();
        boundary.resize(k * self.boundary.ncols(), 0.0);
        for (t, &j) in self.boundary_owned.iter().enumerate() {
            for c in 0..k {
                boundary[t * k + c] = input[j * k + c];
            }
        }
        for (idx, &peer) in self.neighbors.iter().enumerate() {
            let (_, data) = comm.recv_f64(peer, GHOST_TAG + peer as i32)?;
            let list = &self.recv_lists[idx];
            debug_assert_eq!(data.len(), k * list.len());
            for (t, &pos) in list.iter().enumerate() {
                for c in 0..k {
                    boundary[(b_own + pos) * k + c] = data[t * k + c];
                }
            }
        }
        comm.charge_flops(flops);
        sweep(&self.boundary, boundary, y);
        Ok(())
    }
}

/// Split the rows of `local` (owned columns `0..n_local`, ghosts after)
/// into the interior and boundary SELL-C-σ parts of a [`DistCsr`], and
/// list the owned columns the boundary rows read: what the
/// `interior`/`boundary`/`boundary_owned` fields hold.
fn split_parts(
    local: &CsrMatrix,
    n_local: usize,
    sigma: usize,
) -> (SellMatrix, SellMatrix, Vec<usize>) {
    let reads_ghost = |i: usize| local.row(i).0.iter().any(|&j| j >= n_local);
    let (boundary_rows, interior_rows): (Vec<usize>, Vec<usize>) =
        (0..n_local).partition(|&i| reads_ghost(i));
    let mut read = vec![false; n_local];
    for &i in &boundary_rows {
        for &j in local.row(i).0.iter().filter(|&&j| j < n_local) {
            read[j] = true;
        }
    }
    let owned: Vec<usize> = (0..n_local).filter(|&j| read[j]).collect();
    let interior = SellMatrix::from_csr_rows(local, &interior_rows, n_local, |j| j, sigma);
    let ghosts = local.ncols() - n_local;
    let compact = |j: usize| match j.checked_sub(n_local) {
        Some(g) => owned.len() + g,
        None => owned
            .binary_search(&j)
            .expect("a column the boundary rows read"),
    };
    let boundary =
        SellMatrix::from_csr_rows(local, &boundary_rows, owned.len() + ghosts, compact, sigma);
    (interior, boundary, owned)
}

/// Rows of the row-interleaved copy of a column-major block written per
/// pass: a pass reads [`INTERLEAVE_ROWS`] contiguous entries of each column
/// and writes an L1-resident `k`-row block, so neither side strides through
/// memory.
const INTERLEAVE_ROWS: usize = 16;

/// Copy the `k` columns of the column-major `cols` (`out.len()` entries in
/// all) into `out` row-interleaved: entry `j` of column `c` to `out[j·k + c]`.
fn interleave_rows(cols: &[f64], k: usize, out: &mut [f64]) {
    let n = out.len() / k;
    for (b, block) in out.chunks_mut(INTERLEAVE_ROWS * k).enumerate() {
        let j0 = b * INTERLEAVE_ROWS;
        for c in 0..k {
            let src = &cols[c * n + j0..c * n + j0 + block.len() / k];
            for (row, &v) in block.chunks_exact_mut(k).zip(src) {
                row[c] = v;
            }
        }
    }
}

/// What only the unit tests use.
#[cfg(test)]
impl DistVector {
    /// Global 2-norm (one allreduce). A norm is the same `2n` FLOPs as the
    /// dot it delegates to, so it must **not** charge again on top of
    /// [`DistVector::dot`] — pinned by the `norm_costs_exactly_one_dot`
    /// test.
    fn norm<C: CommBackend>(&self, comm: &mut C) -> Result<f64> {
        Ok(crate::kernel::sqrt_nonneg(self.dot(comm, self)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilient_linalg::{poisson1d, poisson2d};
    use resilient_runtime::{Runtime, RuntimeConfig};

    #[test]
    fn dist_vector_dot_and_norm_match_serial() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let n = 37;
        let result = rt.run(4, move |comm| {
            let x = DistVector::from_fn(comm, n, |i| (i + 1) as f64);
            let y = DistVector::from_fn(comm, n, |_| 2.0);
            let d = x.dot(comm, &y)?;
            let nx = x.norm(comm)?;
            Ok((d, nx))
        });
        let serial_dot: f64 = (1..=n).map(|i| 2.0 * i as f64).sum();
        let serial_norm: f64 = ((1..=n).map(|i| (i * i) as f64).sum::<f64>()).sqrt();
        for (d, nx) in result.unwrap_all() {
            assert!((d - serial_dot).abs() < 1e-9);
            assert!((nx - serial_norm).abs() < 1e-9);
        }
    }

    #[test]
    fn dist_vector_axpy_and_gather() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let n = 11;
        let result = rt.run(3, move |comm| {
            let mut x = DistVector::from_fn(comm, n, |i| i as f64);
            let y = DistVector::from_fn(comm, n, |_| 1.0);
            x.axpy(10.0, &y);
            x.scale(0.5);
            x.gather_global(comm)
        });
        for g in result.unwrap_all() {
            let expected: Vec<f64> = (0..n).map(|i| 0.5 * (i as f64 + 10.0)).collect();
            assert_eq!(g, expected);
        }
    }

    #[test]
    fn dist_spmv_matches_serial_poisson1d() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(4, move |comm| {
            let a = poisson1d(23);
            let da = DistCsr::from_global(comm, &a)?;
            let x = DistVector::from_fn(comm, 23, |i| (i as f64 * 0.37).sin());
            let y = da.apply(comm, &x)?;
            Ok((
                y.gather_global(comm)?,
                da.local.ncols() - da.n_local,
                da.neighbors().len(),
            ))
        });
        let a = poisson1d(23);
        let x: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
        let expected = a.spmv(&x);
        for (got, ghosts, neighbors) in result.unwrap_all() {
            for (g, e) in got.iter().zip(&expected) {
                assert!((g - e).abs() < 1e-12);
            }
            // 1-D Laplacian: interior ranks have 2 ghosts / 2 neighbours.
            assert!(ghosts <= 2);
            assert!(neighbors <= 2);
        }
    }

    #[test]
    fn dist_spmv_matches_serial_poisson2d_uneven_ranks() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(5, move |comm| {
            let a = poisson2d(9, 7);
            let n = a.nrows();
            let da = DistCsr::from_global(comm, &a)?;
            let x = DistVector::from_fn(comm, n, |i| 1.0 + (i % 4) as f64);
            let y = da.apply(comm, &x)?;
            y.gather_global(comm)
        });
        let a = poisson2d(9, 7);
        let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 4) as f64).collect();
        let expected = a.spmv(&x);
        for got in result.unwrap_all() {
            for (g, e) in got.iter().zip(&expected) {
                assert!((g - e).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn norm_costs_exactly_one_dot() {
        // Audit regression: `norm` must charge the same virtual time as one
        // `dot` (its 2n local FLOPs), never double-charge.
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(2, move |comm| {
            let x = DistVector::from_fn(comm, 16, |i| i as f64);
            let t0 = comm.now();
            let _ = x.dot(comm, &x)?;
            let t1 = comm.now();
            let _ = x.norm(comm)?;
            let t2 = comm.now();
            Ok(((t1 - t0) - (t2 - t1)).abs())
        });
        for delta in result.unwrap_all() {
            assert!(delta < 1e-12, "norm must cost exactly one dot: {delta}");
        }
    }

    #[test]
    fn local_norm_inf_matches_global() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(3, move |comm| {
            let a = poisson2d(6, 5);
            let da = DistCsr::from_global(comm, &a)?;
            comm.allreduce_scalar(resilient_runtime::ReduceOp::Max, da.local_norm_inf())
        });
        let a = poisson2d(6, 5);
        let serial: f64 = (0..a.nrows())
            .map(|i| a.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        for g in result.unwrap_all() {
            assert_eq!(g, serial);
        }
    }

    #[test]
    fn local_diagonal_block_matches_global_submatrix() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(3, move |comm| {
            let a = poisson2d(5, 4);
            let da = DistCsr::from_global(comm, &a)?;
            let block = da.local_diagonal_block();
            let start = resilient_runtime::BlockDistribution::new(a.nrows(), comm.size())
                .range(comm.rank())
                .start;
            Ok((start, block))
        });
        let a = poisson2d(5, 4);
        for (start, block) in result.unwrap_all() {
            assert_eq!(block.nrows(), block.ncols());
            for li in 0..block.nrows() {
                for lj in 0..block.ncols() {
                    let expected = {
                        let (cols, vals) = a.row(start + li);
                        cols.iter()
                            .zip(vals)
                            .find(|(&c, _)| c == start + lj)
                            .map_or(0.0, |(_, &v)| v)
                    };
                    let (cols, vals) = block.row(li);
                    let got = cols
                        .iter()
                        .zip(vals)
                        .find(|(&c, _)| c == lj)
                        .map_or(0.0, |(_, &v)| v);
                    assert_eq!(got, expected, "block[{li}][{lj}]");
                }
            }
        }
    }

    /// Every column of a block product is bit-identical to the single-RHS
    /// product of that column — on both backends and two sort scopes σ, at
    /// k = 1, 3 and 8 (a scalar tail only; full 4-wide quads), on 1–3 ranks
    /// of at least 64 rows each (so both parts of the split hold rows and
    /// both SpMMs run through the halo). A NaN planted in column 2 of rank 0's last
    /// row, a ghost row of rank 1, reaches column 2 of rank 1's product and
    /// no other column: the k-wide ghost rows do not mix columns.
    #[test]
    fn apply_block_columns_match_single_rhs_apply_bitwise() {
        let rt = Runtime::new(RuntimeConfig::fast());
        for ranks in 1..=3usize {
            for k in [1usize, 3, 8] {
                let result = rt.run(ranks, move |comm| {
                    let a = poisson2d(15, 15);
                    let n = a.nrows();
                    let planted = BlockDistribution::new(n, comm.size()).range(0).end - 1;
                    let xb = DistMultiVector::from_fn(comm, n, k, |c, i| {
                        if c == 2 && i == planted {
                            f64::NAN
                        } else {
                            ((i + 3 * c) as f64 * 0.29).sin()
                        }
                    });
                    let mut runs = Vec::new();
                    for ops in [resilient_linalg::scalar_ops(), resilient_linalg::simd_ops()] {
                        for (sigma, da) in [
                            (4, DistCsr::from_global(comm, &a)?.with_sell_layout(4)),
                            (SELL_DEFAULT_SIGMA, DistCsr::from_global(comm, &a)?),
                        ] {
                            assert!(da.local_rows() >= 64, "{} rows", da.local_rows());
                            // Stale contents of the caller's buffer must not survive.
                            let mut yb = DistMultiVector::from_fn(comm, n, k, |_, _| f64::NAN);
                            let mut halo = HaloScratch::default();
                            da.apply_block_into(comm, &xb, ops, &mut halo, k, &mut yb)?;
                            let mut singles = Vec::new();
                            for c in 0..k {
                                let y = da.apply_with(comm, &xb.column(c), ops, &mut halo)?;
                                singles.push(y.local);
                            }
                            runs.push((format!("{} σ={sigma}", ops.name()), yb, singles));
                        }
                    }
                    Ok((comm.rank(), runs))
                });
                for (rank, runs) in result.unwrap_all() {
                    for (what, yb, singles) in runs {
                        for (c, want) in singles.iter().enumerate() {
                            let bits =
                                |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                            let at = format!("{what} ranks={ranks} k={k} rank={rank} c={c}");
                            assert_eq!(bits(yb.col(c)), bits(want), "{at}");
                            let poisoned = yb.col(c).iter().any(|v| v.is_nan());
                            assert_eq!(poisoned, c == 2 && rank <= 1, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn apply_block_rejects_mismatched_shapes_before_sending() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(2, move |comm| {
            let a = poisson2d(5, 4);
            let n = a.nrows();
            let da = DistCsr::from_global(comm, &a)?;
            let ops = resilient_linalg::scalar_ops();
            let mut scratch = HaloScratch::default();
            let x = DistMultiVector::zeros(comm, n, 2);
            let sent = comm.snapshot_stats().messages_sent;
            let wrong_x = DistMultiVector::zeros(comm, n + 3, 2);
            let mut y = DistMultiVector::zeros(comm, n, 2);
            let as_input = da.apply_block_into(comm, &wrong_x, ops, &mut scratch, 2, &mut y);
            let mut wrong_y = DistMultiVector::zeros(comm, n, 3);
            let as_output = da.apply_block_into(comm, &x, ops, &mut scratch, 2, &mut wrong_y);
            // Rank 1 owns as many rows of `n + 1` as of `n`: only the
            // distribution tells this `y` apart on every rank.
            let mut unlike_y = DistMultiVector::zeros(comm, n + 1, 2);
            let as_unlike = da.apply_block_into(comm, &x, ops, &mut scratch, 2, &mut unlike_y);
            Ok((
                [as_input, as_output, as_unlike],
                comm.snapshot_stats().messages_sent - sent,
            ))
        });
        for ([as_input, as_output, as_unlike], sent) in result.unwrap_all() {
            for (what, res) in [
                ("input `x`", as_input),
                ("output `y`", as_output),
                ("output `y`", as_unlike),
            ] {
                match res {
                    Err(RuntimeError::InvalidArgument(msg)) => assert!(msg.contains(what), "{msg}"),
                    other => panic!("{what}: expected InvalidArgument, got {other:?}"),
                }
            }
            assert_eq!(sent, 0, "a rejected product exchanges no ghosts");
        }
    }

    #[test]
    fn apply_into_matches_apply_with_and_rejects_mismatched_shapes_before_sending() {
        let rt = Runtime::new(RuntimeConfig::fast());
        for ranks in [1usize, 3] {
            let result = rt.run(ranks, move |comm| {
                let a = poisson2d(7, 6);
                let n = a.nrows();
                let x = DistVector::from_fn(comm, n, |i| (i as f64 * 0.29).sin());
                let ops = resilient_linalg::auto_ops();
                let mut scratch = HaloScratch::default();
                let mut products = Vec::new();
                for da in [
                    DistCsr::from_global(comm, &a)?.with_sell_layout(1),
                    DistCsr::from_global(comm, &a)?.with_sell_layout(4),
                ] {
                    let want = da.apply_with(comm, &x, ops, &mut scratch)?;
                    // Stale contents of the caller's buffer must not survive.
                    let mut got = DistVector::from_fn(comm, n, |_| f64::NAN);
                    da.apply_into(comm, &x, ops, &mut scratch, &mut got)?;
                    products.push((want, got));
                }
                let da = DistCsr::from_global(comm, &a)?;
                let sent = comm.snapshot_stats().messages_sent;
                let wrong = DistVector::zeros(comm, n + 3);
                let mut y = DistVector::zeros(comm, n);
                let as_input = da.apply_into(comm, &wrong, ops, &mut scratch, &mut y);
                let mut wrong_y = DistVector::zeros(comm, n + 3);
                let as_output = da.apply_into(comm, &x, ops, &mut scratch, &mut wrong_y);
                Ok((
                    products,
                    as_input,
                    as_output,
                    comm.snapshot_stats().messages_sent - sent,
                ))
            });
            for (products, as_input, as_output, sent) in result.unwrap_all() {
                let bits = |v: &DistVector| v.local.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                for (want, got) in &products {
                    assert_eq!(bits(got), bits(want), "ranks={ranks}");
                }
                for (what, res) in [("input `x`", as_input), ("output `y`", as_output)] {
                    match res {
                        Err(RuntimeError::InvalidArgument(msg)) => {
                            assert!(msg.contains(what), "{msg}")
                        }
                        other => panic!("{what}: expected InvalidArgument, got {other:?}"),
                    }
                }
                assert_eq!(sent, 0, "a rejected product exchanges no ghosts");
            }
        }
    }

    #[test]
    fn multivector_roundtrips_columns() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(3, move |comm| {
            let cols: Vec<DistVector> = (0..3)
                .map(|c| DistVector::from_fn(comm, 14, |i| (c * 100 + i) as f64))
                .collect();
            let mut mv = DistMultiVector::from_columns(&cols);
            assert_eq!(mv.k(), 3);
            for (c, want) in cols.iter().enumerate() {
                assert_eq!(&mv.column(c), want);
            }
            let replacement = DistVector::from_fn(comm, 14, |i| -(i as f64));
            mv.col_mut(1).copy_from_slice(&replacement.local);
            Ok(mv.column(1) == replacement)
        });
        assert!(result.unwrap_all().into_iter().all(|ok| ok));
    }

    #[test]
    fn fingerprint_is_stable_and_value_sensitive() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(3, move |comm| {
            let a = poisson2d(6, 6);
            let da1 = DistCsr::from_global(comm, &a)?;
            let da2 = DistCsr::from_global(comm, &a)?;
            // Same structure, diagonal nudged: the hash is per-rank (each
            // rank hashes its own rows), so perturb a value in every
            // rank's block.
            let mut coo = CooMatrix::new(a.nrows(), a.ncols());
            for i in 0..a.nrows() {
                let (cols, vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    coo.push(i, j, if i == j { v + 1e-9 } else { v });
                }
            }
            let da3 = DistCsr::from_global(comm, &coo.to_csr())?;
            Ok((da1.fingerprint(), da2.fingerprint(), da3.fingerprint()))
        });
        for (f1, f2, f3) in result.unwrap_all() {
            assert_eq!(f1, f2, "same matrix must hash equal");
            assert_ne!(f1, f3, "a value change must change the hash");
        }
    }

    /// Rows reading a ghost go to the boundary part, the rest to the
    /// interior part, and the boundary part's compact input is the owned
    /// columns those rows read followed by every ghost.
    #[test]
    fn rows_split_into_interior_and_boundary_parts() {
        let rt = Runtime::new(RuntimeConfig::fast());
        for ranks in [1usize, 3] {
            let result = rt.run(ranks, move |comm| {
                let da = DistCsr::from_global(comm, &poisson1d(23))?;
                let ghosts = da.local.ncols() - da.n_local;
                Ok((
                    da.n_local,
                    da.interior.nrows(),
                    da.boundary.nrows(),
                    da.boundary_owned.clone(),
                    da.boundary.ncols() - ghosts,
                ))
            });
            for (n_local, interior, boundary, owned, compact_owned) in result.unwrap_all() {
                assert_eq!(interior + boundary, n_local);
                assert_eq!(owned.len(), compact_owned);
                if ranks == 1 {
                    assert_eq!((boundary, owned.len()), (0, 0), "one rank has no ghosts");
                } else {
                    // A 1-D Laplacian row reads its two neighbours: only the
                    // end rows of a block read a ghost, and between them they
                    // read the two end rows and the rows next to them.
                    assert!((1..=2).contains(&boundary), "{boundary} boundary rows");
                    assert_eq!(owned.len(), 2 * boundary);
                }
            }
        }
    }

    #[test]
    fn non_square_matrix_is_an_invalid_argument_on_every_rank() {
        let mut coo = CooMatrix::new(4, 5);
        for i in 0..4 {
            coo.push(i, i, 2.0);
            coo.push(i, i + 1, -1.0);
        }
        let a = coo.to_csr();
        for ranks in [1, 3] {
            let rt = Runtime::new(RuntimeConfig::fast());
            let a = a.clone();
            let result = rt.run(ranks, move |comm| {
                let built = DistCsr::from_global(comm, &a).map(|_| ());
                Ok((built, comm.snapshot_stats().collectives))
            });
            let per_rank = result.unwrap_all();
            assert_eq!(per_rank.len(), ranks);
            for (built, collectives) in per_rank {
                match built {
                    Err(RuntimeError::InvalidArgument(msg)) => {
                        assert!(msg.contains("square"), "{msg}")
                    }
                    other => panic!("{ranks} ranks: expected InvalidArgument, got {other:?}"),
                }
                assert_eq!(collectives, 0, "the check posts no collective");
            }
        }
    }

    #[test]
    fn single_rank_has_no_neighbors() {
        let rt = Runtime::new(RuntimeConfig::fast());
        let result = rt.run(1, move |comm| {
            let a = poisson2d(5, 5);
            let da = DistCsr::from_global(comm, &a)?;
            Ok((
                da.local.ncols() - da.n_local,
                da.neighbors().len(),
                da.local_rows(),
                da.global_dim(),
            ))
        });
        assert_eq!(result.unwrap_all(), vec![(0, 0, 25, 25)]);
    }
}
