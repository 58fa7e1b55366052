//! The socket host's send batch: the frames a pump pass sends, handed to
//! the kernel together when the pass ends.
//!
//! [`SendBatch`] is the [`FrameSink`] a [`NodeHost`](crate::NodeHost)
//! lends its core. Queueing copies the frame into one slab; the host
//! flushes the slab once per pump pass (and at the end of `start` and
//! `with_handler`). On 64-bit Linux the flush is one `sendmmsg(2)` per
//! [`SEND_CHUNK`] frames; everywhere else it is a `send_to` per frame, in
//! the same order at the same flush points. The per-frame loop is also
//! the oracle the `sendmmsg` drain is tested against.
//!
//! The slab holds each frame behind a small record: its phase, its
//! length and its destination in a compact form (10 bytes before an IPv4
//! frame, 30 before an IPv6 one). A record list of `SocketAddr`s would
//! cost 36 bytes a frame, and the slab keeps its high-water capacity for
//! the host's life, so the record size is what the batch adds to every
//! host's heap.
//!
//! `sendmmsg` is declared by hand: the workspace builds offline with no
//! `libc` crate. Its mirrors of the kernel structs live in this module's
//! `sys`, the crate's only `unsafe` code.

use crate::core::FrameSink;
use gossip_net::Phase;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, SocketAddrV4, SocketAddrV6, UdpSocket};

/// Frames handed to one `sendmmsg` call at most.
const SEND_CHUNK: usize = 64;

/// Record tag of an IPv4 destination: port, then 4 address octets.
const TAG_V4: u8 = 4;
/// Record tag of an IPv6 destination: port, 16 address octets, flow
/// info, scope id.
const TAG_V6: u8 = 6;
/// Record bytes before the destination: phase, frame length, tag.
/// The destination follows: 6 bytes for IPv4, 26 for IPv6.
const RECORD_HEAD: usize = 4;

/// One queued frame, read back out of the slab.
pub(crate) struct Queued<'a> {
    pub phase: Phase,
    pub addr: SocketAddr,
    pub frame: &'a [u8],
}

/// The frames of one pump pass, in queue order, back to back in one slab.
#[derive(Default)]
pub(crate) struct SendBatch {
    slab: Vec<u8>,
}

impl FrameSink for SendBatch {
    /// Queue a frame of unknown phase; a refusal is charged to
    /// [`Phase::Other`].
    fn send_frame(&mut self, addr: SocketAddr, frame: &[u8]) -> io::Result<usize> {
        self.send_phase_frame(Phase::Other, addr, frame)
    }

    fn send_phase_frame(
        &mut self,
        phase: Phase,
        addr: SocketAddr,
        frame: &[u8],
    ) -> io::Result<usize> {
        let len = u16::try_from(frame.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds one datagram")
        })?;
        let dest = match addr {
            SocketAddr::V4(_) => 6,
            SocketAddr::V6(_) => 26,
        };
        self.slab.reserve(RECORD_HEAD + dest + frame.len());
        self.slab.push(phase as u8);
        self.slab.extend_from_slice(&len.to_le_bytes());
        match addr {
            SocketAddr::V4(a) => {
                self.slab.push(TAG_V4);
                self.slab.extend_from_slice(&a.port().to_le_bytes());
                self.slab.extend_from_slice(&a.ip().octets());
            }
            SocketAddr::V6(a) => {
                self.slab.push(TAG_V6);
                self.slab.extend_from_slice(&a.port().to_le_bytes());
                self.slab.extend_from_slice(&a.ip().octets());
                self.slab.extend_from_slice(&a.flowinfo().to_le_bytes());
                self.slab.extend_from_slice(&a.scope_id().to_le_bytes());
            }
        }
        self.slab.extend_from_slice(frame);
        Ok(frame.len())
    }
}

impl SendBatch {
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The queued frames in queue order.
    fn frames(&self) -> impl Iterator<Item = Queued<'_>> {
        let mut rest = &self.slab[..];
        std::iter::from_fn(move || {
            let (head, tail) = rest.split_first_chunk::<RECORD_HEAD>()?;
            let [phase, len_lo, len_hi, tag] = *head;
            let (addr, tail) = if tag == TAG_V4 {
                let (dest, tail) = tail.split_first_chunk::<6>()?;
                let [p0, p1, a, b, c, d] = *dest;
                let addr =
                    SocketAddrV4::new(Ipv4Addr::new(a, b, c, d), u16::from_le_bytes([p0, p1]));
                (SocketAddr::V4(addr), tail)
            } else {
                let (dest, tail) = tail.split_first_chunk::<26>()?;
                let port = u16::from_le_bytes([dest[0], dest[1]]);
                let ip: [u8; 16] = dest[2..18].try_into().expect("16 octets");
                let word =
                    |at: usize| u32::from_le_bytes(dest[at..at + 4].try_into().expect("4 bytes"));
                let addr = SocketAddrV6::new(Ipv6Addr::from(ip), port, word(18), word(22));
                (SocketAddr::V6(addr), tail)
            };
            let (frame, tail) = tail.split_at(usize::from(u16::from_le_bytes([len_lo, len_hi])));
            rest = tail;
            Some(Queued {
                phase: Phase::ALL[usize::from(phase)],
                addr,
                frame,
            })
        })
    }

    /// Hand every queued frame to the kernel through `socket`, in queue
    /// order, and empty the batch. `refused` sees each frame the kernel
    /// refused; the frames after it are still sent.
    pub(crate) fn flush(&mut self, socket: &UdpSocket, refused: impl FnMut(Queued<'_>)) {
        if self.is_empty() {
            return;
        }
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        self.flush_mmsg(socket, refused);
        #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
        self.flush_each(socket, refused);
        self.slab.clear();
    }

    /// The portable drain: one `send_to` per frame.
    #[cfg_attr(
        all(target_os = "linux", target_pointer_width = "64", not(test)),
        allow(dead_code)
    )]
    fn flush_each(&self, socket: &UdpSocket, mut refused: impl FnMut(Queued<'_>)) {
        for queued in self.frames() {
            if socket.send_to(queued.frame, queued.addr).is_err() {
                refused(queued);
            }
        }
    }

    /// The Linux drain: one `sendmmsg` per [`SEND_CHUNK`] frames.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn flush_mmsg(&self, socket: &UdpSocket, mut refused: impl FnMut(Queued<'_>)) {
        use std::os::fd::AsRawFd;
        let fd = socket.as_raw_fd();
        let mut frames = self.frames();
        let mut done = 0;
        loop {
            // A refusal is rare: find the frame again by its position.
            let mut refused_at = |k: usize| {
                refused(self.frames().nth(done + k).expect("a queued frame"));
            };
            match sys::send_chunk(fd, &mut frames, &mut refused_at) {
                0 => return,
                taken => done += taken,
            }
        }
    }
}

/// `sendmmsg(2)` and hand-written mirrors of the kernel structs it takes,
/// as laid out on 64-bit Linux (the `size_t` fields are the kernel's
/// 8-byte `__kernel_size_t`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    use super::{Queued, SEND_CHUNK};
    use std::ffi::{c_int, c_uint, c_void};
    use std::mem::MaybeUninit;
    use std::net::SocketAddr;
    use std::os::fd::RawFd;
    use std::ptr;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        iov_base: *mut c_void,
        iov_len: usize,
    }

    /// `struct msghdr`.
    #[repr(C)]
    struct MsgHdr {
        msg_name: *mut c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut c_void,
        msg_controllen: usize,
        msg_flags: c_int,
    }

    /// `struct mmsghdr`: one message of a `sendmmsg` vector.
    #[repr(C)]
    struct MmsgHdr {
        msg_hdr: MsgHdr,
        /// Bytes sent, written by the kernel.
        msg_len: c_uint,
    }

    /// `struct sockaddr_in`; port and address in network byte order.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: [u8; 4],
        sin_zero: [u8; 8],
    }

    /// `struct sockaddr_in6`; port and address in network byte order.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SockAddrIn6 {
        sin6_family: u16,
        sin6_port: u16,
        sin6_flowinfo: u32,
        sin6_addr: [u8; 16],
        sin6_scope_id: u32,
    }

    /// Room for either address family.
    #[repr(C)]
    #[derive(Clone, Copy)]
    union SockAddr {
        v4: SockAddrIn,
        v6: SockAddrIn6,
    }

    extern "C" {
        fn sendmmsg(sockfd: c_int, msgvec: *mut MmsgHdr, vlen: c_uint, flags: c_int) -> c_int;
    }

    /// `addr` as the kernel reads it, and that struct's length. Flow info
    /// and scope id go in as std's `send_to` passes them.
    fn sockaddr(addr: SocketAddr) -> (SockAddr, u32) {
        match addr {
            SocketAddr::V4(a) => (
                SockAddr {
                    v4: SockAddrIn {
                        sin_family: AF_INET,
                        sin_port: a.port().to_be(),
                        sin_addr: a.ip().octets(),
                        sin_zero: [0; 8],
                    },
                },
                size_of::<SockAddrIn>() as u32,
            ),
            SocketAddr::V6(a) => (
                SockAddr {
                    v6: SockAddrIn6 {
                        sin6_family: AF_INET6,
                        sin6_port: a.port().to_be(),
                        sin6_flowinfo: a.flowinfo(),
                        sin6_addr: a.ip().octets(),
                        sin6_scope_id: a.scope_id(),
                    },
                },
                size_of::<SockAddrIn6>() as u32,
            ),
        }
    }

    /// Take up to [`SEND_CHUNK`] frames from `frames` and send them on
    /// `fd` with as few `sendmmsg` calls as the kernel allows; returns how
    /// many were taken. The kernel stops at the first frame it refuses;
    /// that frame's index in the chunk goes to `refused` and the next call
    /// resumes past it.
    pub(super) fn send_chunk<'a>(
        fd: RawFd,
        frames: &mut impl Iterator<Item = Queued<'a>>,
        refused: &mut dyn FnMut(usize),
    ) -> usize {
        // Only the first `taken` slots are written, and only those are
        // handed to the kernel: a pass of a few frames fills a few slots.
        let mut names = [const { MaybeUninit::<SockAddr>::uninit() }; SEND_CHUNK];
        let mut iovs = [const { MaybeUninit::<IoVec>::uninit() }; SEND_CHUNK];
        let mut hdrs = [const { MaybeUninit::<MmsgHdr>::uninit() }; SEND_CHUNK];
        let mut taken = 0;
        for queued in frames.take(SEND_CHUNK) {
            let (name, namelen) = sockaddr(queued.addr);
            // The kernel only reads through `iov_base`; the pointer is
            // `*mut` because `struct iovec` is shared with the receive
            // calls. Each slot's pointers stay valid: the arrays never move
            // and a slot is never written again once a header points at it.
            let iov = iovs[taken].write(IoVec {
                iov_base: queued.frame.as_ptr() as *mut c_void,
                iov_len: queued.frame.len(),
            });
            hdrs[taken].write(MmsgHdr {
                msg_hdr: MsgHdr {
                    msg_name: ptr::from_mut(names[taken].write(name)).cast(),
                    msg_namelen: namelen,
                    msg_iov: iov,
                    msg_iovlen: 1,
                    msg_control: ptr::null_mut(),
                    msg_controllen: 0,
                    msg_flags: 0,
                },
                msg_len: 0,
            });
            taken += 1;
        }
        let mut sent = 0;
        while sent < taken {
            let left = &mut hdrs[sent..taken];
            // SAFETY: `left` is a run of headers written above (`sent..taken`
            // lies in `0..taken`), laid out as the kernel's `mmsghdr` (the
            // layout test pins sizes and offsets), and exclusively
            // borrowed. Each points at one `sockaddr` in `names` of the
            // length it states and at one `iovec` in `iovs` whose base and
            // length are a frame borrowed from the batch slab; those slots
            // were written before the header and the arrays, the slab and
            // `left` all outlive the call. No control data is passed. The
            // kernel reads the `vlen` headers given and writes only their
            // `msg_len` fields.
            let got = unsafe {
                sendmmsg(
                    fd,
                    left.as_mut_ptr().cast::<MmsgHdr>(),
                    left.len() as c_uint,
                    0,
                )
            };
            if got > 0 {
                sent += got as usize;
            } else {
                // -1: the first frame left was refused (0 cannot happen
                // for a non-empty vector; treated alike so the loop ends).
                refused(sent);
                sent += 1;
            }
        }
        taken
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::mem::{align_of, offset_of};

        #[test]
        fn mirrors_match_the_kernel_layout_on_64_bit_linux() {
            assert_eq!((size_of::<IoVec>(), align_of::<IoVec>()), (16, 8));
            assert_eq!(offset_of!(IoVec, iov_base), 0);
            assert_eq!(offset_of!(IoVec, iov_len), 8);

            assert_eq!((size_of::<MsgHdr>(), align_of::<MsgHdr>()), (56, 8));
            assert_eq!(offset_of!(MsgHdr, msg_name), 0);
            assert_eq!(offset_of!(MsgHdr, msg_namelen), 8);
            assert_eq!(offset_of!(MsgHdr, msg_iov), 16);
            assert_eq!(offset_of!(MsgHdr, msg_iovlen), 24);
            assert_eq!(offset_of!(MsgHdr, msg_control), 32);
            assert_eq!(offset_of!(MsgHdr, msg_controllen), 40);
            assert_eq!(offset_of!(MsgHdr, msg_flags), 48);

            assert_eq!((size_of::<MmsgHdr>(), align_of::<MmsgHdr>()), (64, 8));
            assert_eq!(offset_of!(MmsgHdr, msg_hdr), 0);
            assert_eq!(offset_of!(MmsgHdr, msg_len), 56);

            assert_eq!((size_of::<SockAddrIn>(), align_of::<SockAddrIn>()), (16, 2));
            assert_eq!(offset_of!(SockAddrIn, sin_family), 0);
            assert_eq!(offset_of!(SockAddrIn, sin_port), 2);
            assert_eq!(offset_of!(SockAddrIn, sin_addr), 4);
            assert_eq!(offset_of!(SockAddrIn, sin_zero), 8);

            assert_eq!(
                (size_of::<SockAddrIn6>(), align_of::<SockAddrIn6>()),
                (28, 4)
            );
            assert_eq!(offset_of!(SockAddrIn6, sin6_family), 0);
            assert_eq!(offset_of!(SockAddrIn6, sin6_port), 2);
            assert_eq!(offset_of!(SockAddrIn6, sin6_flowinfo), 4);
            assert_eq!(offset_of!(SockAddrIn6, sin6_addr), 8);
            assert_eq!(offset_of!(SockAddrIn6, sin6_scope_id), 24);

            assert_eq!((size_of::<SockAddr>(), align_of::<SockAddr>()), (28, 4));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn bind(addr: &str) -> Option<UdpSocket> {
        match UdpSocket::bind(addr) {
            Ok(socket) => Some(socket),
            Err(e) => {
                eprintln!("skipping: cannot bind {addr} ({e})");
                None
            }
        }
    }

    /// Frames of every length from 1 to `count`, each byte naming its
    /// frame and position.
    fn frames(count: usize) -> Vec<Vec<u8>> {
        (1..=count)
            .map(|len| (0..len).map(|i| (len * 31 + i) as u8).collect())
            .collect()
    }

    /// Queue `frames` for `capture`, drain them with `flush` and read back
    /// what arrived, in arrival order.
    fn drain_with(
        sender: &UdpSocket,
        capture: &UdpSocket,
        frames: &[Vec<u8>],
        flush: impl FnOnce(&SendBatch, &UdpSocket, &mut dyn FnMut(Queued<'_>)),
    ) -> Vec<Vec<u8>> {
        let to = capture.local_addr().expect("bound");
        let mut batch = SendBatch::default();
        for (i, frame) in frames.iter().enumerate() {
            let phase = Phase::ALL[i % Phase::ALL.len()];
            batch.send_phase_frame(phase, to, frame).expect("queued");
        }
        let mut refusals = 0;
        flush(&batch, sender, &mut |_| refusals += 1);
        assert_eq!(refusals, 0);
        capture
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 512];
        (0..frames.len())
            .map(|_| {
                let (len, _) = capture.recv_from(&mut buf).expect("a queued frame arrives");
                buf[..len].to_vec()
            })
            .collect()
    }

    /// Both drains deliver the queued bytes, in queue order, over more
    /// than two `sendmmsg` chunks.
    fn drains_agree(host: &str) {
        let (Some(sender), Some(capture)) = (bind(host), bind(host)) else {
            return;
        };
        let frames = frames(2 * SEND_CHUNK + 7);
        let each = drain_with(&sender, &capture, &frames, |b, s, r| b.flush_each(s, r));
        assert_eq!(each, frames, "the per-frame loop delivers in queue order");
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            let mmsg = drain_with(&sender, &capture, &frames, |b, s, r| b.flush_mmsg(s, r));
            assert_eq!(mmsg, each, "sendmmsg delivers what the loop does");
        }
    }

    #[test]
    fn sendmmsg_and_the_send_to_loop_deliver_the_same_datagrams_over_ipv4() {
        drains_agree("127.0.0.1:0");
    }

    #[test]
    fn sendmmsg_and_the_send_to_loop_deliver_the_same_datagrams_over_ipv6() {
        drains_agree("[::1]:0");
    }

    #[test]
    fn records_round_trip_every_phase_and_both_families() {
        let v6 = SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::LOCALHOST, 9, 0x1234, 7));
        let v4 = SocketAddr::from(([10, 1, 2, 3], 65_535));
        let mut batch = SendBatch::default();
        for (i, &phase) in Phase::ALL.iter().enumerate() {
            let addr = if i % 2 == 0 { v4 } else { v6 };
            batch
                .send_phase_frame(phase, addr, &[i as u8; 3])
                .expect("queued");
        }
        let read: Vec<_> = batch
            .frames()
            .map(|q| (q.phase, q.addr, q.frame.to_vec()))
            .collect();
        assert_eq!(read.len(), Phase::ALL.len());
        for (i, (phase, addr, frame)) in read.into_iter().enumerate() {
            assert_eq!(phase, Phase::ALL[i]);
            assert_eq!(addr, if i % 2 == 0 { v4 } else { v6 });
            assert_eq!(frame, vec![i as u8; 3]);
        }
    }

    /// An IPv4 socket refuses an IPv6 destination (`EAFNOSUPPORT`): both
    /// drains report exactly that frame and still send the ones after it.
    #[test]
    fn a_refused_frame_is_reported_and_the_drain_resumes_past_it() {
        let (Some(sender), Some(capture)) = (bind("127.0.0.1:0"), bind("127.0.0.1:0")) else {
            return;
        };
        capture
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let good = capture.local_addr().expect("bound");
        let bad = SocketAddr::from((Ipv6Addr::LOCALHOST, good.port()));
        type Drain = fn(&SendBatch, &UdpSocket, &mut dyn FnMut(Queued<'_>));
        fn each(b: &SendBatch, s: &UdpSocket, r: &mut dyn FnMut(Queued<'_>)) {
            b.flush_each(s, r)
        }
        let mut drains: Vec<Drain> = vec![each];
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        {
            fn mmsg(b: &SendBatch, s: &UdpSocket, r: &mut dyn FnMut(Queued<'_>)) {
                b.flush_mmsg(s, r)
            }
            drains.push(mmsg);
        }
        for drain in drains {
            let mut batch = SendBatch::default();
            batch
                .send_phase_frame(Phase::Rumor, good, b"first")
                .expect("queued");
            batch
                .send_phase_frame(Phase::Routing, bad, b"refused")
                .expect("queued");
            batch
                .send_phase_frame(Phase::Rumor, good, b"last")
                .expect("queued");
            let mut refused = Vec::new();
            drain(&batch, &sender, &mut |q| {
                refused.push((q.phase, q.addr, q.frame.to_vec()))
            });
            assert_eq!(refused, vec![(Phase::Routing, bad, b"refused".to_vec())]);
            let mut buf = [0u8; 16];
            for want in [&b"first"[..], b"last"] {
                let (len, _) = capture.recv_from(&mut buf).expect("a good frame arrives");
                assert_eq!(&buf[..len], want);
            }
        }
    }
}
