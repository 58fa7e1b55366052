//! The reference kernel: what the box is doing to us, measured beside
//! every rep.
//!
//! On the shared two-vCPU box the benchmark was defined on, the neighbours
//! switch on and off for a minute or so at a time, and the median of a
//! 25 s window of any workload moves by 20–40 % with them (README, noise
//! table). No statistic of one window removes that. What does is timing,
//! just before every rep, three fixed kernels that share no code with the
//! program but lean on the same shared resources, and scaling the rep's
//! times by how slow the kernels ran:
//!
//! - loopback UDP `send_to`/`recv_from` pairs on two std sockets (the
//!   kernel's path);
//! - four interleaved pointer chases through 16 MiB (the memory system);
//! - small-`Vec` allocation churn (the allocator and the core's front
//!   end).
//!
//! A reading is the geometric mean of the three times, so each counts alike
//! whatever its length. Against it the 25 s window medians of all four
//! workloads stay within 4–5 % of each other where the raw ones move by
//! 9–22 %. A single-chain ALU loop does not track the workloads (r ≈ 0.3;
//! one dependent multiply chain does not care who shares the core), which
//! is why it is reported (`bench.ref_alu_ms`) and not used.
//!
//! The kernels are the benchmark's own code: a change to the repo cannot
//! move them, so it cannot move what the times are scaled by.

use crate::spans::Tracer;
use crate::stats::mix;
use std::hint::black_box;
use std::net::{SocketAddr, UdpSocket};
use std::time::Instant;

/// The reference's reading on the defining box in its usual state. Times
/// are scaled by `NOMINAL_S ÷ reading`, so a reported second is a second
/// of that box in that state.
pub const NOMINAL_S: f64 = 0.010;

pub struct Reference {
    next: Vec<u32>,
    chase_steps: u32,
    from: UdpSocket,
    to: UdpSocket,
    to_addr: SocketAddr,
    datagrams: u32,
    allocations: usize,
    alu_steps: u64,
}

/// One timing of the three kernels, seconds each.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub syscall_s: f64,
    pub chase_s: f64,
    pub alloc_s: f64,
}

impl Reading {
    /// The geometric mean of the three.
    pub fn seconds(&self) -> f64 {
        (self.syscall_s * self.chase_s * self.alloc_s).cbrt()
    }

    /// What to multiply a time measured beside this reading by.
    pub fn scale(&self) -> f64 {
        NOMINAL_S / self.seconds()
    }
}

impl Reference {
    pub fn new(toy: bool) -> Self {
        // One cycle through all slots (Sattolo's shuffle), so no chase
        // settles into a short, cached loop.
        let slots = if toy { 1 << 14 } else { 1 << 22 };
        let mut next: Vec<u32> = (0..slots as u32).collect();
        for i in (1..slots).rev() {
            let j = (mix(0xC4A5E, i as u64) % i as u64) as usize;
            next.swap(i, j);
        }
        let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind a loopback UDP socket");
        let (from, to) = (bind(), bind());
        let to_addr = to.local_addr().expect("a bound socket has an address");
        let size = |full: u32| if toy { full / 100 } else { full };
        Reference {
            next,
            chase_steps: size(125_000),
            from,
            to,
            to_addr,
            datagrams: size(4_000),
            allocations: size(300_000) as usize,
            alu_steps: u64::from(size(12_000_000)),
        }
    }

    /// Time the three kernels, about 35 ms in all.
    pub fn read(&self, tr: &mut Tracer) -> Reading {
        let span = tr.enter("bench.ref_syscall");
        let started = Instant::now();
        let mut frame = [0u8; 40];
        for _ in 0..self.datagrams {
            // A lost datagram would block the receive; loopback with one
            // datagram in flight loses none.
            self.from
                .send_to(&frame, self.to_addr)
                .expect("send on loopback");
            self.to.recv_from(&mut frame).expect("receive on loopback");
        }
        let syscall_s = started.elapsed().as_secs_f64();
        tr.exit_counted(span, 2 * u64::from(self.datagrams));

        let span = tr.enter("bench.ref_chase");
        let started = Instant::now();
        let quarter = (self.next.len() / 4) as u32;
        let mut at = [0, quarter, 2 * quarter, 3 * quarter];
        for _ in 0..self.chase_steps {
            for a in &mut at {
                *a = self.next[*a as usize];
            }
        }
        black_box(at);
        let chase_s = started.elapsed().as_secs_f64();
        tr.exit_counted(span, 4 * u64::from(self.chase_steps));

        let span = tr.enter("bench.ref_alloc");
        let started = Instant::now();
        let mut kept: Vec<Vec<u64>> = Vec::with_capacity(512);
        for i in 0..self.allocations {
            let v = vec![i as u64; 4 + (i * 7) % 60];
            if kept.len() < 512 {
                kept.push(v);
            } else {
                kept[(i * 31) % 512] = v;
            }
        }
        black_box(&kept);
        let alloc_s = started.elapsed().as_secs_f64();
        tr.exit_counted(span, self.allocations as u64);

        Reading {
            syscall_s,
            chase_s,
            alloc_s,
        }
    }

    /// Milliseconds for one dependent multiply chain: the probe that does
    /// not track the workloads, kept to show it.
    pub fn alu_ms(&self, tr: &mut Tracer) -> f64 {
        let span = tr.enter("bench.ref_alu");
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..self.alu_steps {
            x = (x ^ (x >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
        black_box(x);
        tr.exit_counted(span, self.alu_steps);
        started.elapsed().as_secs_f64() * 1e3
    }
}
