//! Edge-list to CSR construction.
//!
//! The builder accepts arbitrary (possibly duplicated, self-looped,
//! unsorted) edge lists and produces the clean symmetric CSR that the
//! coarsening and trainers assume: sorted neighbour lists, no duplicate
//! arcs, no self loops, every edge present in both directions (for the
//! undirected graphs used throughout the paper).

use crate::csr::{Csr, VertexId};

/// Accumulates edges and finalizes them into a [`Csr`].
///
/// Construction is O(|V| + |E|) using counting sort over the source
/// endpoint — the same complexity budget the paper gives for each
/// coarsening stage, so graph (re)construction never dominates.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices. The result is symmetrized,
    /// deduplicated, and self-loop free.
    pub fn new(n: usize) -> Self {
        Self {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices the builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Add one edge. Panics if an endpoint is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for n={}",
            self.num_vertices
        );
        self.edges.push((u, v));
    }

    /// Add many edges.
    pub fn extend<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }

    /// Reserve capacity for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.edges.reserve(additional);
    }

    /// Finalize into a CSR graph.
    pub fn build(self) -> Csr {
        let n = self.num_vertices;
        let mut arcs: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.edges.len() * 2);
        for &(u, v) in &self.edges {
            if u != v {
                arcs.push((u, v));
                arcs.push((v, u));
            }
        }

        // Counting sort by source: O(|V| + |E|).
        let mut counts = vec![0usize; n + 1];
        for &(u, _) in &arcs {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let xadj = counts.clone();
        let mut adj = vec![0 as VertexId; arcs.len()];
        let mut cursor = counts;
        for &(u, v) in &arcs {
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }

        // Sort each neighbour list, then dedup it.
        let mut out_adj = Vec::with_capacity(adj.len());
        let mut out_xadj = Vec::with_capacity(n + 1);
        out_xadj.push(0usize);
        for v in 0..n {
            let slice = &mut adj[xadj[v]..xadj[v + 1]];
            slice.sort_unstable();
            let mut last: Option<VertexId> = None;
            for &u in slice.iter() {
                if last != Some(u) {
                    out_adj.push(u);
                    last = Some(u);
                }
            }
            out_xadj.push(out_adj.len());
        }

        Csr::from_raw(out_xadj, out_adj)
    }
}

/// Parallel counting-sort CSR construction over pre-chunked edge lists —
/// the scatter/gather discipline of `gosh-coarsen::fused`, minus every
/// atomic: the arc list is split into one *static* span set per worker,
/// each worker counts its spans into a private per-vertex array, a
/// lexicographic (vertex, worker) prefix sum turns those counts into
/// private scatter cursors (so the shared arena is written without a
/// single locked instruction), and per-thread contiguous vertex ranges
/// (balanced by arc mass) then sort + dedup each neighbour list *in
/// place* before a memcpy assembly pass.
///
/// The result is byte-identical to the sequential
/// [`GraphBuilder::build`] on the concatenation
/// of `chunks`, for any thread count: workers interleave differently in
/// the arena, but every per-vertex slice holds the same multiset, and
/// sort + dedup is order-insensitive.
pub(crate) fn build_csr_parallel(
    n: usize,
    chunks: &[&[(VertexId, VertexId)]],
    threads: usize,
) -> Csr {
    assert!(threads >= 1, "need at least one thread");
    if n == 0 {
        return Csr::empty(0);
    }
    let spans = partition_spans(chunks, threads);

    // Pass 1: private per-vertex counts per worker. The safe indexing
    // here is also the range check for every endpoint — by the time the
    // unchecked scatter below runs, `u < n` and `v < n` are proven for
    // the exact same arc set.
    let mut counts: Vec<Vec<usize>> = gosh_runtime::map_jobs(threads, spans.len(), |t| {
        let mut c = vec![0usize; n];
        for &(ci, a, b) in &spans[t] {
            for &(u, v) in &chunks[ci][a..b] {
                if u != v {
                    c[u as usize] += 1;
                    c[v as usize] += 1;
                }
            }
        }
        c
    });

    // Prefix sum in lexicographic (vertex, worker) order: `xadj0[v]` is
    // where vertex v's region starts, and `counts[t][v]` becomes worker
    // t's private write cursor inside that region. Each (worker, vertex)
    // pair owns a disjoint sub-range, so the scatter needs no
    // synchronization at all.
    let mut xadj0 = vec![0usize; n + 1];
    let mut running = 0usize;
    for v in 0..n {
        xadj0[v] = running;
        for c in counts.iter_mut() {
            let k = c[v];
            c[v] = running;
            running += k;
        }
    }
    xadj0[n] = running;

    // Pass 2: scatter both arc directions through the private cursors.
    let mut arena: Vec<VertexId> = vec![0; running];
    {
        let shared = SharedArena::new(&mut arena);
        let cursor_slots: Vec<std::sync::Mutex<Option<Vec<usize>>>> = std::mem::take(&mut counts)
            .into_iter()
            .map(|c| std::sync::Mutex::new(Some(c)))
            .collect();
        gosh_runtime::map_jobs(threads, spans.len(), |t| {
            let mut cur = cursor_slots[t]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("cursor set claimed once");
            for &(ci, a, b) in &spans[t] {
                for &(u, v) in &chunks[ci][a..b] {
                    if u != v {
                        // SAFETY: pass 1 proved `u, v < n` for
                        // this very span set, and each cursor
                        // walks a sub-range no other (worker,
                        // vertex) pair overlaps, exactly
                        // `counts` entries long.
                        unsafe {
                            shared.write(cur[u as usize], v);
                            shared.write(cur[v as usize], u);
                        }
                        cur[u as usize] += 1;
                        cur[v as usize] += 1;
                    }
                }
            }
        });
    }

    // Pass 3: sort + dedup every neighbour list in place, over
    // contiguous vertex ranges balanced by arc mass. `split_at_mut`
    // hands each worker its own arena window — back to fully safe code.
    let bounds = arc_mass_bounds(&xadj0, n, threads);
    let mut uniq = vec![0usize; n];
    {
        type SortWindow<'a> = (&'a mut [VertexId], &'a mut [usize]);
        let mut arena_rest = arena.as_mut_slice();
        let mut uniq_rest = uniq.as_mut_slice();
        let mut windows: Vec<std::sync::Mutex<Option<SortWindow<'_>>>> =
            Vec::with_capacity(threads);
        for t in 0..threads {
            let (vs, ve) = (bounds[t], bounds[t + 1]);
            let (mine, rest) = arena_rest.split_at_mut(xadj0[ve] - xadj0[vs]);
            arena_rest = rest;
            let (uniq_mine, rest) = uniq_rest.split_at_mut(ve - vs);
            uniq_rest = rest;
            windows.push(std::sync::Mutex::new(Some((mine, uniq_mine))));
        }
        gosh_runtime::map_jobs(threads, threads, |t| {
            let (mine, uniq_mine) = windows[t]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("sort window claimed once");
            let (vs, ve) = (bounds[t], bounds[t + 1]);
            let off = xadj0[vs];
            for v in vs..ve {
                let list = &mut mine[xadj0[v] - off..xadj0[v + 1] - off];
                list.sort_unstable();
                uniq_mine[v - vs] = dedup_prefix(list);
            }
        });
    }

    // Pass 4: assemble — prefix-sum the unique degrees, then copy each
    // vertex's deduplicated prefix into its final slot, again over
    // disjoint per-worker output windows.
    let mut xadj = vec![0usize; n + 1];
    for v in 0..n {
        xadj[v + 1] = xadj[v] + uniq[v];
    }
    let mut adj: Vec<VertexId> = vec![0; xadj[n]];
    {
        let mut adj_rest = adj.as_mut_slice();
        let mut windows: Vec<std::sync::Mutex<Option<&mut [VertexId]>>> =
            Vec::with_capacity(threads);
        for t in 0..threads {
            let (vs, ve) = (bounds[t], bounds[t + 1]);
            let (mine, rest) = adj_rest.split_at_mut(xadj[ve] - xadj[vs]);
            adj_rest = rest;
            windows.push(std::sync::Mutex::new(Some(mine)));
        }
        let (arena, xadj0, xadj, uniq) = (&arena, &xadj0, &xadj, &uniq);
        gosh_runtime::map_jobs(threads, threads, |t| {
            let mine = windows[t]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("assembly window claimed once");
            let (vs, ve) = (bounds[t], bounds[t + 1]);
            let off = xadj[vs];
            for v in vs..ve {
                mine[xadj[v] - off..xadj[v + 1] - off]
                    .copy_from_slice(&arena[xadj0[v]..xadj0[v] + uniq[v]]);
            }
        });
    }
    // Construction proves the invariants: `xadj` is a prefix sum whose
    // total is exactly the copied length, and pass 1 range-checked every
    // entry. Debug builds re-validate.
    Csr::from_raw_trusted(xadj, adj)
}

/// Sort-assuming in-place dedup: compact the unique prefix of a sorted
/// slice and return its length (`slice::partition_dedup` without the
/// nightly feature).
fn dedup_prefix(list: &mut [VertexId]) -> usize {
    if list.is_empty() {
        return 0;
    }
    let mut w = 1usize;
    for r in 1..list.len() {
        if list[r] != list[w - 1] {
            list[w] = list[r];
            w += 1;
        }
    }
    w
}

/// Statically split the concatenation of `chunks` into `threads` span
/// groups of near-equal arc count. Each span is `(chunk, start, end)`.
/// The partition must be identical across the count and scatter passes —
/// the private-cursor discipline depends on both passes walking the same
/// arcs per worker — which is why claims are not dynamic here.
fn partition_spans(
    chunks: &[&[(VertexId, VertexId)]],
    threads: usize,
) -> Vec<Vec<(usize, usize, usize)>> {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    let mut out = vec![Vec::new(); threads];
    let mut t = 0usize;
    let mut consumed = 0usize;
    for (ci, chunk) in chunks.iter().enumerate() {
        let mut start = 0usize;
        while start < chunk.len() {
            let group_end = total * (t + 1) / threads;
            if group_end <= consumed && t + 1 < threads {
                t += 1;
                continue;
            }
            let take = (group_end - consumed).min(chunk.len() - start).max(1);
            out[t].push((ci, start, start + take));
            start += take;
            consumed += take;
        }
    }
    out
}

/// A `&mut [T]` writable concurrently by the scoped scatter workers at
/// provably disjoint indices (each index is written exactly once, by
/// exactly one worker, per the private-cursor prefix sums). Reads wait
/// until the scope join.
struct SharedArena<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: sharing the arena across threads only permits `write`, whose
// contract (disjoint indices, `i < len`) makes every access exclusive;
// `T: Send` lets the written values move to the writing thread.
unsafe impl<T: Send> Sync for SharedArena<T> {}

impl<T> SharedArena<T> {
    fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// `i < len`, and no other write to `i` may race with this one.
    unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        // SAFETY: `i < len` puts the pointer inside the arena, and the
        // caller contract makes this the only access to slot `i`.
        unsafe { *self.ptr.add(i) = value }
    }
}

/// Split `0..n` into one contiguous vertex range per thread with roughly
/// equal arc mass (`xadj0` prefix sums), so the sort/dedup and assembly
/// passes balance even when a few hubs dominate.
fn arc_mass_bounds(xadj0: &[usize], n: usize, threads: usize) -> Vec<usize> {
    let total = xadj0[n];
    let mut bounds = Vec::with_capacity(threads + 1);
    bounds.push(0);
    let mut v = 0usize;
    for t in 1..threads {
        let target = total * t / threads;
        while v < n && xadj0[v] < target {
            v += 1;
        }
        bounds.push(v.min(n));
    }
    bounds.push(n);
    bounds
}

/// Convenience: build a symmetric, deduplicated, loop-free CSR from an edge list.
pub fn csr_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Csr {
    let mut b = GraphBuilder::new(n);
    b.extend(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_symmetric() {
        let g = csr_from_edges(4, &[(2, 0), (0, 1), (3, 1)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.neighbors(3), &[1]);
        assert!(g.is_symmetric());
    }

    #[test]
    fn dedups_duplicates_and_reverse_duplicates() {
        let g = csr_from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn drops_self_loops_by_default() {
        let g = csr_from_edges(2, &[(0, 0), (0, 1)]);
        assert!(g.has_no_self_loops());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        use crate::rng::Xorshift128Plus;
        let mut rng = Xorshift128Plus::new(41);
        let n = 500usize;
        // Duplicate-laden list with self loops and reverse duplicates.
        let edges: Vec<(u32, u32)> = (0..8_000)
            .map(|_| {
                (
                    (rng.next_u64() % n as u64) as u32,
                    (rng.next_u64() % n as u64) as u32,
                )
            })
            .collect();
        let seq = csr_from_edges(n, &edges);
        for threads in [1, 2, 3, 4, 8] {
            let par = build_csr_parallel(n, &[&edges], threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
        // The chunked entry point agrees too, for any chunking.
        let (a, bpart) = edges.split_at(1234);
        let (b1, b2) = bpart.split_at(17);
        assert_eq!(build_csr_parallel(n, &[a, b1, b2], 4), seq);
    }

    #[test]
    fn parallel_build_empty_inputs() {
        assert_eq!(build_csr_parallel(0, &[&[]], 4), Csr::empty(0));
        let g = build_csr_parallel(3, &[&[]], 2);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices_survive() {
        let g = csr_from_edges(5, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_isolated(), 3);
    }
}
