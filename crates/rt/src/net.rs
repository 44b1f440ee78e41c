//! Readiness-based I/O primitives on `poll(2)` — the hermetic substrate
//! under the `sns-serve` reactor.
//!
//! Like the rest of `sns-rt`, this module replaces what other stacks
//! would pull from crates.io (`mio`, `polling`) with a thin layer over
//! what the platform already links: `std` links libc, libc exports
//! `poll`, `pipe` and `fcntl`, and that is everything a single-threaded
//! readiness loop needs.
//!
//! * [`poll`] — wait for readiness on a set of [`PollFd`]s with an
//!   optional timeout.
//! * [`Waker`] — a self-pipe that other threads write one byte into to
//!   make a blocked [`poll`] return (the classic self-pipe trick).
//! * interest constants ([`POLLIN`], [`POLLOUT`]) and the error
//!   revents ([`POLLERR`], [`POLLHUP`], [`POLLNVAL`]).
//!
//! Everything here is Unix-only (`#[cfg(unix)]`); the workspace targets
//! Linux containers and the `sns-serve` signal handling is already
//! Unix-gated the same way.

#![cfg(unix)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable interest / readiness (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable interest / readiness (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition readiness (output only).
pub const POLLERR: i16 = 0x008;
/// Peer hang-up readiness (output only).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd readiness (output only).
pub const POLLNVAL: i16 = 0x020;

/// One entry in a [`poll`] set, layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Returned events (filled in by [`poll`]).
    pub revents: i16,
}

impl PollFd {
    /// A new entry watching `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd { fd, events, revents: 0 }
    }

    /// Whether any of `mask`'s bits came back in `revents`.
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }

    /// Whether the fd reported an error/hangup condition. `POLLHUP`
    /// alone is *not* included: a half-closed peer still delivers its
    /// final bytes through `POLLIN` reads first.
    pub fn failed(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

mod sys {
    use std::ffi::{c_int, c_ulong};

    extern "C" {
        pub fn poll(fds: *mut super::PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;
}

/// Waits until at least one entry in `fds` is ready, an error condition
/// is pending, or `timeout` elapses (`None` = wait forever). Returns the
/// number of entries with non-zero `revents` (0 on timeout).
///
/// `EINTR` is retried internally with the timeout re-derived, so callers
/// never observe spurious interrupted-syscall errors.
///
/// # Errors
///
/// Any `poll(2)` failure other than `EINTR` (e.g. `EINVAL` for an
/// oversized set) is returned as the corresponding [`io::Error`].
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| std::time::Instant::now() + t);
    loop {
        let timeout_ms: i32 = match deadline {
            None => -1,
            Some(d) => {
                let left = d.saturating_duration_since(std::time::Instant::now());
                // Round up so a 0.5ms remainder never busy-spins.
                i32::try_from(left.as_millis().saturating_add(1)).unwrap_or(i32::MAX)
            }
        };
        let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            return Ok(0);
        }
    }
}

/// Puts a raw fd into non-blocking mode (used for the listener, accepted
/// sockets, and the waker pipe ends).
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    if unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A self-pipe waker: [`wake`](Self::wake) from any thread makes a
/// [`poll`] that includes [`fd`](Self::fd) with [`POLLIN`] return
/// immediately. Both pipe ends are non-blocking, so `wake` never blocks
/// even if the reactor has not drained for a while (the pipe simply
/// stays full — one pending byte is enough to level-trigger `POLLIN`).
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Creates the pipe pair.
    ///
    /// # Errors
    ///
    /// Returns the OS error if `pipe(2)` or `fcntl(2)` fails (fd
    /// exhaustion, essentially).
    pub fn new() -> io::Result<Waker> {
        let mut fds: [std::ffi::c_int; 2] = [-1, -1];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let waker = Waker { read_fd: fds[0], write_fd: fds[1] };
        set_nonblocking(waker.read_fd)?;
        set_nonblocking(waker.write_fd)?;
        Ok(waker)
    }

    /// The fd to include (with [`POLLIN`]) in the reactor's poll set.
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the poller. Safe and non-blocking from any thread; a full
    /// pipe (reactor busy) is fine — the pending bytes already guarantee
    /// the next poll returns immediately.
    pub fn wake(&self) {
        let byte = [1u8];
        // EAGAIN (pipe full) and EINTR both leave a wake already pending.
        unsafe { sys::write(self.write_fd, byte.as_ptr(), 1) };
    }

    /// Drains all pending wake bytes; call once per poll iteration when
    /// the waker fd reported readable.
    pub fn drain(&self) {
        let mut scratch = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.read_fd, scratch.as_mut_ptr(), scratch.len()) };
            if n <= 0 {
                return; // empty (EAGAIN), closed, or interrupted — all done
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// Both ends are plain fds used via syscalls only.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[test]
    fn poll_times_out_on_idle_fds() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn poll_sees_an_incoming_connection_and_readable_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();

        let mut fds = [PollFd::new(listener.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN));

        let (mut server_side, _) = listener.accept().unwrap();
        client.write_all(b"hi").unwrap();
        let mut fds = [PollFd::new(server_side.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready(POLLIN), "bytes pending");
        assert!(fds[0].ready(POLLOUT), "fresh socket is writable");
        let mut buf = [0u8; 2];
        server_side.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn waker_wakes_a_blocked_poll_and_drains() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        // Nothing pending yet.
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(10))).unwrap(), 0);

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
        });
        let start = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(start.elapsed() < Duration::from_secs(4), "woke early, not by timeout");
        t.join().unwrap();

        waker.drain();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(10))).unwrap(), 0, "drained");
    }

    #[test]
    fn waker_survives_many_wakes_without_blocking() {
        let waker = Waker::new().unwrap();
        // Far beyond the pipe capacity: wake() must never block or fail.
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(100))).unwrap(), 1);
        waker.drain();
    }

    #[test]
    fn set_nonblocking_makes_reads_return_wouldblock() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        set_nonblocking(server_side.as_raw_fd()).unwrap();
        let mut buf = [0u8; 8];
        match server_side.read(&mut buf) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            Ok(n) => panic!("expected WouldBlock, read {n} bytes"),
        }
    }
}
