//! Communicators and collective operations.
//!
//! GreeM's PM pipeline is structured entirely around communicators made
//! with `MPI_Comm_split` (§II-B): `COMM_FFT` (the ranks that run the
//! slab FFT), `COMM_SMALLA2A` (each relay group, for the group-local
//! `Alltoallv`) and `COMM_REDUCE` (one rank per group holding the same
//! slab, for the over-groups `Reduce`/`Bcast`). [`Comm::split`]
//! reproduces the same semantics: ranks passing the same `color` end up
//! in one sub-communicator, ordered by `key` (ties broken by parent
//! rank).
//!
//! Collectives use the algorithms real MPI implementations use at these
//! scales — binomial trees for `bcast`/`reduce`/`barrier`, linear
//! fan-in for `gather` (small-message `Gatherv`), Bruck-style
//! dissemination for `allgather`, pairwise exchange for `alltoallv` — so
//! the simulated network sees a realistic message pattern, which is the
//! whole point: the relay-mesh experiment is *about* those patterns.
//!
//! Each of barrier, bcast, reduce, gather and allgather is written once,
//! as a per-rank action list in `sched`. Two executors walk those
//! lists: the collective methods of [`Comm`] below, which carry real
//! payloads between rank threads, and the phantom engine (see
//! [`crate::script`] and DESIGN.md §16), which carries only modelled
//! sizes. `alltoallv` and `split` exist only here, on threads.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::ctx::Ctx;
use sched::{Act, Part};

/// Reserved tag space for collectives (top bit set).
const COLL_TAG_BASE: u64 = 1 << 63;

/// Operation codes mixed into collective tags so different collectives
/// never match each other's messages even at the same sequence number.
#[derive(Clone, Copy)]
enum CollOp {
    Barrier = 1,
    Bcast = 2,
    Reduce = 3,
    Gather = 4,
    AllToAll = 5,
    Split = 6,
    AllGather = 7,
}

impl CollOp {
    /// The collective's `comm` tracing span name.
    fn name(self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Bcast => "bcast",
            CollOp::Reduce => "reduce",
            CollOp::Gather => "gather",
            CollOp::AllToAll => "alltoallv",
            CollOp::Split => "split",
            CollOp::AllGather => "allgather",
        }
    }
}

/// A communicator: an ordered subset of world ranks, with this rank's
/// position in it. Cheap to clone.
///
/// All collective methods must be called by **every** member of the
/// communicator, in the same order — the usual SPMD contract. Tags are
/// sequenced per communicator so back-to-back collectives cannot
/// cross-match.
#[derive(Debug, Clone)]
pub struct Comm {
    id: u64,
    /// Global rank of each member, indexed by local rank.
    ranks: Arc<Vec<usize>>,
    /// This rank's local rank within the communicator.
    my_rank: usize,
    /// Per-rank collective sequence counter (program order).
    seq: Cell<u64>,
}

impl Comm {
    /// The world communicator for a world of `n` ranks.
    pub(crate) fn world(n: usize, my_global: usize) -> Comm {
        Comm {
            id: 0,
            ranks: Arc::new((0..n).collect()),
            my_rank: my_global,
            seq: Cell::new(0),
        }
    }

    /// A communicator over an explicit member list with a caller-chosen
    /// id. Used by the script runtime, which derives group membership
    /// and ids deterministically on every rank (no `split` traffic);
    /// the id space must not collide with `split`'s counter.
    pub(crate) fn subset(id: u64, ranks: Arc<Vec<usize>>, my_rank: usize) -> Comm {
        debug_assert!(my_rank < ranks.len());
        Comm {
            id,
            ranks,
            my_rank,
            seq: Cell::new(0),
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// This rank's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Global (world) rank of local rank `r`.
    pub fn global_rank(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// All members' global ranks, in local-rank order.
    pub fn members(&self) -> &[usize] {
        &self.ranks
    }

    fn next_tag(&self, op: CollOp) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        COLL_TAG_BASE | (s << 8) | op as u64
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `data` to local rank `dest` with a user `tag` (< 2⁶³).
    pub fn send<T: Send + 'static>(&self, ctx: &mut Ctx, dest: usize, tag: u64, data: Vec<T>) {
        debug_assert!(tag < COLL_TAG_BASE, "user tags must not set the top bit");
        ctx.send_raw(self.ranks[dest], self.id, tag, data);
    }

    /// Blocking receive from local rank `src` with matching `tag`.
    pub fn recv<T: Send + 'static>(&self, ctx: &mut Ctx, src: usize, tag: u64) -> Vec<T> {
        debug_assert!(tag < COLL_TAG_BASE, "user tags must not set the top bit");
        ctx.recv_raw(self.ranks[src], self.id, tag)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Run collective body `f` inside a `comm` tracing span that records
    /// this rank's traffic delta (bytes/hops/messages) as span args. A
    /// cheap passthrough while recording is disabled.
    fn traced<R>(
        &self,
        ctx: &mut Ctx,
        name: &'static str,
        f: impl FnOnce(&Self, &mut Ctx) -> R,
    ) -> R {
        #[cfg(feature = "obs")]
        if greem_obs::trace::is_enabled() {
            let before = ctx.comm_stats();
            let mut span = greem_obs::trace::span("comm", name);
            let out = f(self, ctx);
            let after = ctx.comm_stats();
            span.arg("bytes_sent", (after.bytes_sent - before.bytes_sent) as f64);
            span.arg(
                "bytes_received",
                (after.bytes_received - before.bytes_received) as f64,
            );
            span.arg("hops", (after.hops_sent - before.hops_sent) as f64);
            span.arg(
                "messages",
                (after.messages_sent - before.messages_sent) as f64,
            );
            return out;
        }
        #[cfg(not(feature = "obs"))]
        let _ = name;
        f(self, ctx)
    }

    /// The threaded executor of the [`sched`] patterns: walk this
    /// rank's action list for one collective in order, handing each
    /// action to `on` with its peer resolved, so `on` only says what the
    /// payload is. Byte counts come from the real payloads, so the
    /// schedule's modelled sizes are passed as 0. A collective's
    /// messages share one tag; where one edge carries two (a Bruck
    /// round's header and blocks), per-edge send order tells them
    /// apart, as the phantom engine's per-edge FIFOs do.
    fn execute(
        &self,
        ctx: &mut Ctx,
        op: CollOp,
        schedule: impl FnOnce(&mut Vec<Act>),
        mut on: impl FnMut(&mut Ctx, Link, Act),
    ) {
        self.traced(ctx, op.name(), |c, ctx| {
            let tag = c.next_tag(op);
            let mut acts = Vec::new();
            schedule(&mut acts);
            for act in acts {
                let (Act::Send(peer, ..) | Act::Recv(peer, _)) = act;
                let link = Link {
                    peer: peer as usize,
                    global: c.ranks[peer as usize],
                    comm_id: c.id,
                    tag,
                };
                on(ctx, link, act);
            }
        })
    }

    /// Synchronise all members: binomial fan-in to local rank 0, fan-out
    /// back. On return every member's virtual clock is at least the
    /// latest pre-barrier clock plus the tree traversal cost.
    pub fn barrier(&self, ctx: &mut Ctx) {
        let (p, r) = (self.size(), self.my_rank);
        let schedule = |out: &mut Vec<Act>| sched::barrier(p, r, out);
        self.execute(ctx, CollOp::Barrier, schedule, |ctx, link, act| match act {
            Act::Send(..) => link.send::<u8>(ctx, Vec::new()),
            Act::Recv(..) => drop(link.recv::<u8>(ctx)),
        });
    }

    /// Broadcast `data` from local rank `root` to every member. Non-root
    /// ranks pass `None` (their argument is ignored); every rank returns
    /// the broadcast vector. Binomial tree, like `MPI_Bcast`.
    pub fn bcast<T: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        let (p, r) = (self.size(), self.my_rank);
        assert!(r != root || data.is_some(), "bcast root must supply data");
        let mut buf = data.unwrap_or_default();
        let schedule = |out: &mut Vec<Act>| sched::bcast(p, r, root, 0, out);
        self.execute(ctx, CollOp::Bcast, schedule, |ctx, link, act| match act {
            Act::Send(..) => link.send(ctx, buf.clone()),
            Act::Recv(..) => buf = link.recv(ctx),
        });
        buf
    }

    /// Element-wise reduction to local rank `root` over equal-length
    /// vectors; `op(acc, x)` folds a remote element into the local
    /// accumulator. Returns `Some(result)` on the root, `None` elsewhere.
    /// Binomial fan-in, like `MPI_Reduce`.
    pub fn reduce<T, F>(&self, ctx: &mut Ctx, root: usize, local: Vec<T>, op: F) -> Option<Vec<T>>
    where
        T: Clone + Send + 'static,
        F: Fn(&mut T, &T),
    {
        let (p, r) = (self.size(), self.my_rank);
        // Every rank but the root ends by sending its accumulator up.
        let mut acc = Some(local);
        let schedule = |out: &mut Vec<Act>| sched::reduce(p, r, root, 0, out);
        self.execute(ctx, CollOp::Reduce, schedule, |ctx, link, act| match act {
            Act::Send(..) => link.send(ctx, acc.take().expect("reduce: sent twice")),
            Act::Recv(..) => {
                let other = link.recv::<T>(ctx);
                let acc = acc.as_mut().expect("reduce: receive after send");
                assert_eq!(acc.len(), other.len(), "reduce: length mismatch");
                for (a, b) in acc.iter_mut().zip(other.iter()) {
                    op(a, b);
                }
            }
        });
        acc
    }

    /// Reduce to local rank 0 then broadcast: every member returns the
    /// reduced vector.
    pub fn allreduce<T, F>(&self, ctx: &mut Ctx, local: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&mut T, &T),
    {
        self.traced(ctx, "allreduce", move |c, ctx| {
            let reduced = c.reduce(ctx, 0, local, op);
            c.bcast(ctx, 0, reduced)
        })
    }

    /// Gather every member's vector at local rank `root` (linear fan-in,
    /// like small-message `MPI_Gatherv`). Root returns `Some(vec of
    /// per-rank vectors)` in local-rank order.
    pub fn gather<T: Send + 'static>(
        &self,
        ctx: &mut Ctx,
        root: usize,
        local: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let (p, r) = (self.size(), self.my_rank);
        let mut local = Some(local);
        let mut slots: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let schedule = |out: &mut Vec<Act>| sched::gather(p, r, root, &|_| 0, out);
        self.execute(ctx, CollOp::Gather, schedule, |ctx, link, act| match act {
            Act::Send(..) => link.send(ctx, local.take().expect("gather: sent twice")),
            Act::Recv(..) => slots[link.peer] = link.recv(ctx),
        });
        // Only the root still holds its buffer; the others sent theirs.
        slots[root] = local?;
        Some(slots)
    }

    /// Gather every member's vector at every member (local-rank order).
    /// Bruck-style dissemination: ⌈log₂ p⌉ rounds in which each rank
    /// ships its accumulated run of blocks `have` ranks downward and
    /// doubles it, so no rank — in particular not local rank 0 —
    /// serialises O(p) receives the way the rooted [`Comm::gather`]
    /// does. Ragged blocks are handled with a small length header
    /// preceding each round's concatenated payload.
    pub fn allgather<T: Clone + Send + 'static>(
        &self,
        ctx: &mut Ctx,
        local: Vec<T>,
    ) -> Vec<Vec<T>> {
        let (p, r) = (self.size(), self.my_rank);
        // blocks[j] holds the vector of local rank (r + j) % p; each
        // round appends the blocks its header announces.
        let mut blocks: Vec<Vec<T>> = vec![local];
        let mut lens: Vec<u64> = Vec::new();
        let schedule = |out: &mut Vec<Act>| sched::allgather(p, r, &|_| 0, out);
        self.execute(
            ctx,
            CollOp::AllGather,
            schedule,
            |ctx, link, act| match act {
                Act::Send(.., Part::Lens(n)) => {
                    let lens = blocks[..n as usize].iter().map(|b| b.len() as u64);
                    link.send(ctx, lens.collect::<Vec<u64>>());
                }
                Act::Send(.., Part::Blocks(n)) => {
                    let data: Vec<T> = blocks[..n as usize].iter().flatten().cloned().collect();
                    link.send(ctx, data);
                }
                Act::Recv(_, Part::Lens(_)) => lens = link.recv(ctx),
                Act::Recv(_, Part::Blocks(_)) => {
                    let mut it = link.recv::<T>(ctx).into_iter();
                    for &len in &lens {
                        blocks.push(it.by_ref().take(len as usize).collect());
                    }
                    debug_assert!(it.next().is_none(), "allgather: header/data mismatch");
                }
                _ => unreachable!("allgather moves only headers and blocks"),
            },
        );
        debug_assert_eq!(blocks.len(), p);
        // Back into local-rank order: blocks[j] belongs at (r + j) % p.
        blocks.rotate_right(r);
        blocks
    }

    /// Personalised all-to-all with per-destination vectors
    /// (`MPI_Alltoallv`): `send[i]` goes to local rank `i`; the return's
    /// `out[i]` is what local rank `i` sent here. Pairwise exchange
    /// schedule (round `k`: send to `me+k`, receive from `me−k`).
    pub fn alltoallv<T: Send + 'static>(&self, ctx: &mut Ctx, send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.traced(ctx, CollOp::AllToAll.name(), move |c, ctx| {
            c.alltoallv_impl(ctx, send)
        })
    }

    fn alltoallv_impl<T: Send + 'static>(&self, ctx: &mut Ctx, send: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            send.len(),
            self.size(),
            "alltoallv: need one buffer per rank"
        );
        let tag = self.next_tag(CollOp::AllToAll);
        let p = self.size();
        let r = self.my_rank;
        let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        let mut send: Vec<Option<Vec<T>>> = send.into_iter().map(Some).collect();
        for k in 0..p {
            let dst = (r + k) % p;
            let buf = send[dst].take().expect("alltoallv buffer used twice");
            ctx.send_raw(self.ranks[dst], self.id, tag, buf);
        }
        for k in 0..p {
            let src = (r + p - k) % p;
            out[src] = ctx.recv_raw::<T>(self.ranks[src], self.id, tag);
        }
        out
    }

    /// Split into sub-communicators by `color`; members with equal color
    /// form one new communicator, ordered by `(key, parent rank)` — the
    /// semantics of `MPI_Comm_split`.
    pub fn split(&self, ctx: &mut Ctx, color: u64, key: u64) -> Comm {
        self.traced(ctx, CollOp::Split.name(), move |c, ctx| {
            c.split_impl(ctx, color, key)
        })
    }

    fn split_impl(&self, ctx: &mut Ctx, color: u64, key: u64) -> Comm {
        let tag = self.next_tag(CollOp::Split);
        let root_global = self.ranks[0];
        // Gather (color, key, my_rank) at local rank 0.
        if self.my_rank != 0 {
            ctx.send_raw(root_global, self.id, tag, vec![(color, key, self.my_rank)]);
            // Receive assignment: (comm_id, my_local_rank, members…).
            let data = ctx.recv_raw::<u64>(root_global, self.id, tag + (1 << 7));
            return Self::unpack_split(data);
        }
        let mut entries: Vec<(u64, u64, usize)> = vec![(color, key, 0)];
        for src in 1..self.size() {
            entries.extend(ctx.recv_raw::<(u64, u64, usize)>(self.ranks[src], self.id, tag));
        }
        // Group by color.
        let mut colors: Vec<u64> = entries.iter().map(|e| e.0).collect();
        colors.sort_unstable();
        colors.dedup();
        let mut my_pack: Option<Vec<u64>> = None;
        for c in colors {
            let mut members: Vec<(u64, usize)> = entries
                .iter()
                .filter(|e| e.0 == c)
                .map(|e| (e.1, e.2))
                .collect();
            members.sort_unstable();
            let new_id = ctx.comm_counter.fetch_add(1, Ordering::Relaxed);
            let member_globals: Vec<u64> =
                members.iter().map(|&(_, r)| self.ranks[r] as u64).collect();
            for (local, &(_, parent_rank)) in members.iter().enumerate() {
                let mut pack = vec![new_id, local as u64];
                pack.extend(member_globals.iter().copied());
                if parent_rank == 0 {
                    my_pack = Some(pack);
                } else {
                    ctx.send_raw(self.ranks[parent_rank], self.id, tag + (1 << 7), pack);
                }
            }
        }
        Self::unpack_split(my_pack.expect("split root not a member of any group"))
    }

    fn unpack_split(data: Vec<u64>) -> Comm {
        let id = data[0];
        let my_rank = data[1] as usize;
        let ranks: Vec<usize> = data[2..].iter().map(|&g| g as usize).collect();
        Comm {
            id,
            ranks: Arc::new(ranks),
            my_rank,
            seq: Cell::new(0),
        }
    }
}

/// One scheduled message as the threaded executor moves it: the peer's
/// local rank plus the `(world rank, communicator, tag)` match key.
#[derive(Clone, Copy)]
struct Link {
    peer: usize,
    global: usize,
    comm_id: u64,
    tag: u64,
}

impl Link {
    fn send<T: Send + 'static>(self, ctx: &mut Ctx, data: Vec<T>) {
        ctx.send_raw(self.global, self.comm_id, self.tag, data);
    }

    fn recv<T: Send + 'static>(self, ctx: &mut Ctx) -> Vec<T> {
        ctx.recv_raw(self.global, self.comm_id, self.tag)
    }
}

/// The collectives' message patterns, each written once: per-rank
/// action lists that both executors walk in order — the threaded
/// [`Comm`] methods above, carrying real payloads, and the phantom
/// engine (`crate::engine`), carrying modelled sizes. A phantom-only
/// subtree of a binomial collective therefore costs O(edges) host
/// work instead of O(ranks) threads, and `tests/phantom_equivalence.rs`
/// checks that the two executors agree bitwise at p ≤ 64.
pub(crate) mod sched {
    /// Which part of a collective's state a message carries; only the
    /// threaded executor reads it (the phantom engine moves `bytes`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Part {
        /// The collective's buffer (empty for a barrier).
        Buf,
        /// A Bruck round's length header for the first `n` blocks.
        Lens(u32),
        /// A Bruck round's first `n` blocks, concatenated.
        Blocks(u32),
    }

    /// One edge action, from one rank's point of view: `Send(peer,
    /// bytes, part)` or `Recv(peer, part)`. Peers are local ranks;
    /// `bytes` is the modelled payload size of the send (the receive
    /// side takes its size from the matched message).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Act {
        Send(u32, u64, Part),
        Recv(u32, Part),
    }

    fn send(peer: usize, bytes: u64) -> Act {
        Act::Send(peer as u32, bytes, Part::Buf)
    }

    fn recv(peer: usize) -> Act {
        Act::Recv(peer as u32, Part::Buf)
    }

    /// Highest set bit of a nonzero integer.
    fn highest_bit(x: usize) -> usize {
        debug_assert!(x > 0);
        1 << (usize::BITS - 1 - x.leading_zeros())
    }

    /// Binomial fan-in to local rank 0, mirrored fan-out (`barrier`).
    pub(crate) fn barrier(p: usize, r: usize, out: &mut Vec<Act>) {
        // Fan-in: leaves first.
        let mut k = 1;
        while k < p {
            if r & k != 0 {
                out.push(send(r - k, 0));
                break;
            } else if r + k < p {
                out.push(recv(r + k));
            }
            k <<= 1;
        }
        // Fan-out, mirrored.
        let mut k = p.next_power_of_two() >> 1;
        while k >= 1 {
            if r & k != 0 {
                out.push(recv(r - k));
                break;
            } else if r + k < p {
                out.push(send(r + k, 0));
            }
            k >>= 1;
        }
    }

    /// Binomial broadcast from local rank `root`: receive from the
    /// parent `rel - k` (k the highest set bit of rel), then forward to
    /// the children `rel + k` for every k above it. Each forwarded
    /// message carries the root's payload size.
    pub(crate) fn bcast(p: usize, r: usize, root: usize, root_bytes: u64, out: &mut Vec<Act>) {
        let rel = (r + p - root) % p;
        if rel != 0 {
            let k = highest_bit(rel);
            out.push(recv((rel - k + root) % p));
        }
        let mut k = if rel == 0 { 1 } else { highest_bit(rel) << 1 };
        while rel + k < p {
            out.push(send((rel + k + root) % p, root_bytes));
            k <<= 1;
        }
    }

    /// Binomial reduction to local rank `root`; each rank forwards its
    /// accumulator, whose size never changes (`my_bytes`).
    pub(crate) fn reduce(p: usize, r: usize, root: usize, my_bytes: u64, out: &mut Vec<Act>) {
        let rel = (r + p - root) % p;
        let mut k = 1;
        while k < p {
            if rel & k != 0 {
                out.push(send((rel - k + root) % p, my_bytes));
                return;
            } else if rel + k < p {
                out.push(recv((rel + k + root) % p));
            }
            k <<= 1;
        }
    }

    /// Linear fan-in to local rank `root` (the rooted `gather` stays
    /// root-serialised by design — it models small-message `Gatherv`).
    pub(crate) fn gather(
        p: usize,
        r: usize,
        root: usize,
        bytes_of: &dyn Fn(usize) -> u64,
        out: &mut Vec<Act>,
    ) {
        if r != root {
            out.push(send(root, bytes_of(r)));
            return;
        }
        out.extend((0..p).filter(|&src| src != root).map(recv));
    }

    /// Bruck dissemination `allgather`: in each round a rank ships the
    /// first `cnt` blocks of its run `have` ranks downward — a length
    /// header (8 bytes per block), then the concatenated blocks — and
    /// receives as many from `have` ranks upward, so its run grows to
    /// `have + cnt`. Each (src → dst) pair occurs in exactly one round.
    pub(crate) fn allgather(
        p: usize,
        r: usize,
        bytes_of: &dyn Fn(usize) -> u64,
        out: &mut Vec<Act>,
    ) {
        let mut have = 1;
        while have < p {
            let cnt = have.min(p - have);
            let dst = ((r + p - have) % p) as u32;
            let src = ((r + have) % p) as u32;
            let (lens, blocks) = (Part::Lens(cnt as u32), Part::Blocks(cnt as u32));
            let data: u64 = (0..cnt).map(|j| bytes_of((r + j) % p)).sum();
            out.extend([
                Act::Send(dst, 8 * cnt as u64, lens),
                Act::Send(dst, data, blocks),
                Act::Recv(src, lens),
                Act::Recv(src, blocks),
            ]);
            have += cnt;
        }
    }
}
