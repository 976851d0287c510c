//! Functional and timing-model tests for the mpisim runtime.

use mpisim::{Comm, Ctx, NetModel, Torus3d, World};

#[test]
fn p2p_basic_roundtrip() {
    World::new(2).run(|ctx, world| {
        if world.rank() == 0 {
            world.send(ctx, 1, 7, vec![1.0f64, 2.0, 3.0]);
            let back: Vec<f64> = world.recv(ctx, 1, 8);
            assert_eq!(back, vec![6.0]);
        } else {
            let v: Vec<f64> = world.recv(ctx, 0, 7);
            world.send(ctx, 0, 8, vec![v.iter().sum::<f64>()]);
        }
    });
}

#[test]
fn p2p_tag_matching_reorders() {
    // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
    // MPI-style matching must deliver by tag, not arrival order.
    World::new(2).run(|ctx, world| {
        if world.rank() == 0 {
            world.send(ctx, 1, 2, vec![20i32]);
            world.send(ctx, 1, 1, vec![10i32]);
        } else {
            let a: Vec<i32> = world.recv(ctx, 0, 1);
            let b: Vec<i32> = world.recv(ctx, 0, 2);
            assert_eq!((a[0], b[0]), (10, 20));
        }
    });
}

#[test]
fn p2p_same_tag_messages_do_not_overtake() {
    // Rank 1 receives tag 9 first, which stashes the three tag-5
    // messages; they must still match in send order (MPI's
    // non-overtaking rule), not in stash order.
    World::new(2).run(|ctx, world| {
        if world.rank() == 0 {
            for v in [1u32, 2, 3] {
                world.send(ctx, 1, 5, vec![v]);
            }
            world.send(ctx, 1, 9, vec![0u32]);
        } else {
            let _: Vec<u32> = world.recv(ctx, 0, 9);
            let got: Vec<u32> = (0..3).map(|_| world.recv::<u32>(ctx, 0, 5)[0]).collect();
            assert_eq!(got, vec![1, 2, 3]);
        }
    });
}

#[test]
fn p2p_self_send() {
    World::new(1).run(|ctx, world| {
        world.send(ctx, 0, 3, vec![99u8]);
        let v: Vec<u8> = world.recv(ctx, 0, 3);
        assert_eq!(v, vec![99]);
    });
}

#[test]
fn barrier_all_sizes() {
    for n in [1, 2, 3, 5, 8, 13] {
        World::new(n).run(|ctx, world| {
            for _ in 0..3 {
                world.barrier(ctx);
            }
        });
    }
}

#[test]
fn bcast_from_every_root() {
    for n in [1, 2, 4, 7] {
        for root in 0..n {
            let out = World::new(n).run(|ctx, world| {
                let data = (world.rank() == root).then(|| vec![root as u64, 17]);
                world.bcast(ctx, root, data)
            });
            for v in out {
                assert_eq!(v, vec![root as u64, 17]);
            }
        }
    }
}

#[test]
fn reduce_sums_elementwise() {
    for n in [1, 2, 3, 6, 9] {
        let out = World::new(n).run(|ctx, world| {
            let local = vec![world.rank() as u64, 1];
            world.reduce(ctx, 0, local, |a, b| *a += *b)
        });
        let want_sum: u64 = (0..n as u64).sum();
        assert_eq!(out[0], Some(vec![want_sum, n as u64]));
        for v in &out[1..] {
            assert_eq!(*v, None);
        }
    }
}

#[test]
fn reduce_to_nonzero_root() {
    let out = World::new(5).run(|ctx, world| world.reduce(ctx, 3, vec![1u32], |a, b| *a += *b));
    assert_eq!(out[3], Some(vec![5]));
    assert!(out.iter().enumerate().all(|(i, v)| (i == 3) == v.is_some()));
}

#[test]
fn allreduce_max() {
    let out = World::new(6).run(|ctx, world| {
        let local = vec![(world.rank() as i64 * 7) % 5];
        world.allreduce(ctx, local, |a, b| *a = (*a).max(*b))
    });
    let want = (0..6i64).map(|r| (r * 7) % 5).max().unwrap();
    for v in out {
        assert_eq!(v, vec![want]);
    }
}

#[test]
fn gather_preserves_rank_order() {
    let out = World::new(4).run(|ctx, world| {
        let local = vec![world.rank() as u8; world.rank() + 1];
        world.gather(ctx, 2, local)
    });
    let got = out[2].clone().unwrap();
    assert_eq!(got.len(), 4);
    for (r, v) in got.iter().enumerate() {
        assert_eq!(v.len(), r + 1);
        assert!(v.iter().all(|&x| x == r as u8));
    }
}

#[test]
fn allgather_everyone_sees_everything() {
    let out = World::new(5).run(|ctx, world| world.allgather(ctx, vec![world.rank() as u16 * 10]));
    for v in out {
        assert_eq!(v, (0..5).map(|r| vec![r as u16 * 10]).collect::<Vec<_>>());
    }
}

#[test]
fn allgather_ragged_all_sizes() {
    // Bruck dissemination with ragged per-rank blocks (including empty
    // ones) at powers of two and awkward sizes.
    for n in [1, 2, 3, 4, 5, 7, 8, 13] {
        let out = World::new(n).run(|ctx, world| {
            let r = world.rank();
            let local: Vec<u32> = (0..(r * 5) % 4).map(|i| (r * 100 + i) as u32).collect();
            world.allgather(ctx, local)
        });
        for v in out {
            assert_eq!(v.len(), n);
            for (src, blk) in v.iter().enumerate() {
                let want: Vec<u32> = (0..(src * 5) % 4).map(|i| (src * 100 + i) as u32).collect();
                assert_eq!(blk, &want, "n={n} block from rank {src}");
            }
        }
    }
}

#[test]
fn allgather_does_not_serialize_at_rank0() {
    // The dissemination allgather must beat the old rooted
    // gather-then-bcast composition, whose rank 0 drains p-1 messages
    // and then injects log2(p) copies of the full concatenation.
    let bytes_each = 1 << 18; // 256 KiB per rank
    let net = NetModel::k_computer();
    let p = 16;
    let bruck = World::new(p).with_net(net).run(|ctx, world| {
        let _ = world.allgather(ctx, vec![0u8; bytes_each]);
        ctx.vtime()
    });
    let rooted = World::new(p).with_net(net).run(|ctx, world| {
        // Flatten at the root so the broadcast is charged for the real
        // p·bytes_each concatenation, as MPI_Allgather's payload would be.
        let flat = world
            .gather(ctx, 0, vec![0u8; bytes_each])
            .map(|v| v.concat());
        let _ = world.bcast(ctx, 0, flat);
        ctx.vtime()
    });
    let bruck_max = bruck.iter().cloned().fold(0.0f64, f64::max);
    let rooted_max = rooted.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        bruck_max < rooted_max * 0.7,
        "dissemination allgather ({bruck_max}) should clearly beat \
         root-serialised gather+bcast ({rooted_max})"
    );
}

#[test]
fn allgather_on_split_subcomms() {
    let out = World::new(6).run(|ctx, world| {
        let color = (world.rank() % 2) as u64;
        let sub = world.split(ctx, color, world.rank() as u64);
        sub.allgather(ctx, vec![world.rank() as u64])
    });
    for (r, v) in out.iter().enumerate() {
        let want: Vec<Vec<u64>> = (0..6u64)
            .filter(|x| x % 2 == r as u64 % 2)
            .map(|x| vec![x])
            .collect();
        assert_eq!(v, &want);
    }
}

#[test]
fn alltoallv_transpose_identity() {
    // out[i][...] at rank r == send[r][...] at rank i: a transpose.
    let n = 6;
    let out = World::new(n).run(|ctx, world| {
        let r = world.rank();
        let send: Vec<Vec<u32>> = (0..n).map(|d| vec![(r * 100 + d) as u32]).collect();
        world.alltoallv(ctx, send)
    });
    for (r, recvd) in out.iter().enumerate() {
        for (src, v) in recvd.iter().enumerate() {
            assert_eq!(v, &vec![(src * 100 + r) as u32]);
        }
    }
}

#[test]
fn alltoallv_conserves_items() {
    // Total items sent == total items received, with ragged sizes.
    let n = 5;
    let out = World::new(n).run(|ctx, world| {
        let r = world.rank();
        let send: Vec<Vec<u64>> = (0..n)
            .map(|d| {
                (0..((r * 3 + d * 7) % 4))
                    .map(|i| (r * 1000 + d * 10 + i) as u64)
                    .collect()
            })
            .collect();
        let sent: usize = send.iter().map(Vec::len).sum();
        let recv = world.alltoallv(ctx, send);
        let received: usize = recv.iter().map(Vec::len).sum();
        (sent, received, recv)
    });
    let total_sent: usize = out.iter().map(|(s, _, _)| *s).sum();
    let total_recv: usize = out.iter().map(|(_, r, _)| *r).sum();
    assert_eq!(total_sent, total_recv);
    // Every item arrives unmodified at the right place.
    for (r, (_, _, recv)) in out.iter().enumerate() {
        for (src, v) in recv.iter().enumerate() {
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(x, (src * 1000 + r * 10 + i) as u64);
            }
        }
    }
}

#[test]
fn split_groups_by_color_ordered_by_key() {
    // 8 ranks, two colors (even/odd); key reverses the order.
    let out = World::new(8).run(|ctx, world| {
        let color = (world.rank() % 2) as u64;
        let key = (100 - world.rank()) as u64; // descending by rank
        let sub = world.split(ctx, color, key);
        (sub.size(), sub.rank(), sub.members().to_vec())
    });
    for (r, (size, sub_rank, members)) in out.iter().enumerate() {
        assert_eq!(*size, 4);
        // Key descends with rank, so higher world ranks get lower sub ranks.
        let same_color: Vec<usize> = (0..8).filter(|x| x % 2 == r % 2).collect();
        let mut want = same_color.clone();
        want.reverse();
        assert_eq!(members, &want);
        assert_eq!(want[*sub_rank], r);
    }
}

#[test]
fn split_subcomm_collectives_are_isolated() {
    // Reductions within split comms see only their own members.
    let out = World::new(6).run(|ctx, world| {
        let color = (world.rank() / 3) as u64; // {0,1,2} and {3,4,5}
        let sub = world.split(ctx, color, world.rank() as u64);
        sub.allreduce(ctx, vec![world.rank() as u64], |a, b| *a += *b)
    });
    for (r, v) in out.iter().enumerate() {
        let want = if r < 3 { 1 + 2 } else { 3 + 4 + 5 };
        assert_eq!(v, &vec![want]);
    }
}

#[test]
fn nested_split() {
    // Split twice: the paper builds COMM_SMALLA2A from the world and
    // COMM_REDUCE across groups; emulate the shape on 12 ranks in 3
    // groups of 4, then "reduce" comms joining same-position ranks.
    let groups = 3usize;
    let per = 4usize;
    let out = World::new(groups * per).run(|ctx, world| {
        let g = world.rank() / per;
        let small = world.split(ctx, g as u64, world.rank() as u64);
        let reduce = world.split(ctx, small.rank() as u64, g as u64);
        let sum_small = small.allreduce(ctx, vec![1u32], |a, b| *a += *b)[0];
        let sum_reduce = reduce.allreduce(ctx, vec![1u32], |a, b| *a += *b)[0];
        (sum_small, sum_reduce)
    });
    for (s, r) in out {
        assert_eq!(s, per as u32);
        assert_eq!(r, groups as u32);
    }
}

#[test]
fn vtime_is_deterministic_across_runs() {
    let run = || {
        World::new(8)
            .with_net(NetModel::k_computer())
            .run(|ctx, world| {
                // A mix of collectives with some compute skew.
                ctx.compute(1e-6 * world.rank() as f64);
                let v = world.allreduce(ctx, vec![world.rank() as u64], |a, b| *a += *b);
                let send: Vec<Vec<u64>> = (0..8).map(|d| vec![d as u64; 100]).collect();
                let _ = world.alltoallv(ctx, send);
                world.barrier(ctx);
                assert_eq!(v[0], 28);
                ctx.vtime()
            })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "virtual times must be reproducible");
    assert!(a.iter().all(|&t| t > 0.0));
}

#[test]
fn many_to_one_congests_receiver_port() {
    // The phenomenon behind the relay mesh method: p-1 senders each
    // delivering `bytes` to rank 0 serialise at rank 0's port, so the
    // root's drain time grows linearly with p while a binomial-tree
    // reduce of the same data grows like log2(p) levels of (latency +
    // single-message drain).
    let bytes_each = 1 << 20; // 1 MiB
    let net = NetModel::k_computer();
    let p = 16;
    let gather_time = World::new(p).with_net(net).run(|ctx, world| {
        let data = vec![0u8; bytes_each];
        let _ = world.gather(ctx, 0, data);
        ctx.vtime()
    })[0];
    let reduce_time = World::new(p).with_net(net).run(|ctx, world| {
        let data = vec![0u8; bytes_each];
        let _ = world.reduce(ctx, 0, data, |a, b| *a = a.wrapping_add(*b));
        ctx.vtime()
    })[0];
    // Linear gather must drain (p-1) messages at one port.
    let min_gather = (p - 1) as f64 * bytes_each as f64 / net.bandwidth;
    assert!(
        gather_time >= min_gather * 0.99,
        "gather {gather_time} < serialised drain bound {min_gather}"
    );
    // Tree reduce drains log2(p) messages at the root's port.
    assert!(
        reduce_time < gather_time * 0.5,
        "tree reduce ({reduce_time}) should beat linear gather ({gather_time})"
    );
}

#[test]
fn hop_distance_affects_latency_only_mildly() {
    // Two equal-size messages, one to a neighbour, one across the torus:
    // the far one arrives later by per-hop latency.
    let net = NetModel::k_computer();
    let times = World::new(8)
        .with_topology(Torus3d::new(8, 1, 1))
        .with_net(net)
        .run(|ctx, world| match world.rank() {
            0 => {
                world.send(ctx, 1, 1, vec![0u8; 1024]);
                world.send(ctx, 4, 1, vec![0u8; 1024]);
                0.0
            }
            1 | 4 => {
                let _: Vec<u8> = world.recv(ctx, 0, 1);
                ctx.vtime()
            }
            _ => 0.0,
        });
    let near = times[1];
    let far = times[4];
    assert!(far > near, "far={far} near={near}");
    // 3 extra hops (ring distance 4 vs 1).
    assert!((far - near - 3.0 * net.latency_per_hop) < 1e-6);
}

#[test]
fn comm_stats_count_traffic() {
    let out = World::new(3).run(|ctx, world| {
        if world.rank() == 0 {
            world.send(ctx, 1, 1, vec![0u64; 10]);
            world.send(ctx, 2, 1, vec![0u64; 5]);
        } else {
            let _: Vec<u64> = world.recv(ctx, 0, 1);
        }
        ctx.comm_stats()
    });
    assert_eq!(out[0].messages_sent, 2);
    assert_eq!(out[0].bytes_sent, 8 * 15);
    assert_eq!(out[1].bytes_received, 80);
    assert_eq!(out[2].bytes_received, 40);
}

/// The world communicator exposed to `run` must agree with the ctx.
#[test]
fn world_comm_is_consistent_with_ctx() {
    World::new(4).run(|ctx: &mut Ctx, world: &Comm| {
        assert_eq!(world.size(), ctx.world_size());
        assert_eq!(world.rank(), ctx.world_rank());
        assert_eq!(world.global_rank(world.rank()), ctx.world_rank());
    });
}
