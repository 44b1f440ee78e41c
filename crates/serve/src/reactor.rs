//! The event-driven connection core: one thread, readiness-based
//! non-blocking I/O over `sns_rt::net::poll`, per-connection state
//! machines for HTTP framing.
//!
//! ```text
//!             ┌────────────── reactor thread ──────────────┐
//!  accept ──► │ Reading ──► Dispatched ──► Writing ──► (Lingering) ──► close
//!             │   ▲ poll(POLLIN)   │           ▲ poll(POLLOUT)
//!             └───┼────────────────┼───────────┼───────────┘
//!                 │          dispatch queue    │ completions + waker
//!                 │                ▼           │
//!                 │          worker pool ──────┘  (route → predict → reply)
//! ```
//!
//! The reactor owns every socket and never runs inference: it frames
//! requests byte-by-byte as readiness allows (via the incremental
//! [`parse_head`](crate::http::parse_head)), hands complete requests to
//! the worker pool through a bounded queue, and writes back the response
//! bytes workers push through the completion channel (a
//! [`Waker`](sns_rt::net::Waker) self-pipe interrupts the blocked
//! `poll`). Because sockets never block and never occupy a worker, a
//! slow-loris peer, a stalled reader, or a half-closed connection costs
//! one map entry — not a thread — and head-of-line blocking between
//! connections cannot happen.
//!
//! ## Connection states
//!
//! * **Reading** — accumulating request bytes. A fixed per-connection
//!   deadline (`read_timeout`, set at accept and *never* extended by
//!   arriving bytes) bounds how long framing may take: a peer trickling
//!   one header byte at a time gets `408` when the deadline passes, no
//!   matter how diligently it trickles.
//! * **Dispatched** — a complete request is with the workers; the fd is
//!   not polled at all until its completion arrives.
//! * **Writing** — draining response bytes as `POLLOUT` allows; partial
//!   writes simply leave the state where it is.
//! * **Lingering** — response written but request bytes were never fully
//!   read (framing errors, shed connections): the write side is
//!   half-closed and leftover input is discarded until the peer closes
//!   or a short deadline passes, so the kernel never RSTs the response
//!   away.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sns_rt::net::{poll, PollFd, POLLHUP, POLLIN, POLLOUT};

use crate::http::{build_response, parse_head, FramedHead, HttpError, Request};
use crate::server::{error_body, lock_or_recover, Job, Shared};

/// How long a connection that still has unread request bytes may linger
/// after its response is written (shed 503s, framing 4xx).
const SHED_LINGER: Duration = Duration::from_millis(250);

/// Per-iteration read scratch. Also bounds how much one connection can
/// consume per readiness event before others get a turn.
const SCRATCH: usize = 16 * 1024;

enum State {
    Reading,
    Dispatched,
    Writing { bytes: Vec<u8>, pos: usize, linger: Option<Duration> },
    Lingering,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: Option<FramedHead>,
    state: State,
    /// Reading: framing deadline. Lingering: discard deadline.
    deadline: Instant,
}

enum After {
    /// Stay in Reading; waiting for more bytes.
    Keep,
    /// A complete request is buffered; hand it to the workers.
    Dispatch,
    /// Answer a framing error and (optionally) linger.
    Respond { status: u16, msg: String, linger: Option<Duration> },
    /// Peer went away before sending anything; drop silently.
    CloseSilent,
    /// Socket error mid-request.
    CloseError,
}

enum Framing {
    Incomplete,
    Complete,
    Error { status: u16, msg: String },
}

/// The reactor thread body. Exits when shutdown is requested and every
/// connection has drained.
pub(crate) fn reactor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;

    loop {
        // Apply completed work first: it can free connections and is the
        // reason the waker fired.
        let completions = std::mem::take(&mut *lock_or_recover(&shared.completions));
        for done in completions {
            let Some(conn) = conns.get_mut(&done.conn_id) else { continue };
            conn.state = State::Writing { bytes: done.bytes, pos: 0, linger: None };
            if !advance_write(conn, shared) {
                conns.remove(&done.conn_id);
            }
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // Stop accepting immediately (pending connects get refused),
            // shed idle keep-alive probes, drain everything else.
            listener = None;
            conns.retain(|_, c| {
                !(matches!(c.state, State::Reading) && c.buf.is_empty() && c.head.is_none())
            });
            if conns.is_empty() {
                return;
            }
        }

        // Build the poll set: waker, listener, then live connections.
        let mut fds = Vec::with_capacity(2 + conns.len());
        fds.push(PollFd::new(shared.waker.fd(), POLLIN));
        let listener_idx = listener.as_ref().map(|l| {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            fds.len() - 1
        });
        let base = fds.len();
        let mut conn_ids: Vec<u64> = Vec::with_capacity(conns.len());
        let mut next_deadline: Option<Instant> = None;
        for (&id, conn) in &conns {
            let events = match conn.state {
                State::Reading | State::Lingering => {
                    next_deadline =
                        Some(next_deadline.map_or(conn.deadline, |d| d.min(conn.deadline)));
                    POLLIN
                }
                State::Writing { .. } => POLLOUT,
                // Not polled: nothing to do until its completion arrives.
                State::Dispatched => continue,
            };
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            conn_ids.push(id);
        }

        let timeout =
            next_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if poll(&mut fds, timeout).is_err() {
            // poll(2) only fails here for pathological reasons (fd limit
            // races); back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let busy = Instant::now();

        if fds[0].ready(POLLIN) {
            shared.waker.drain();
        }

        if let Some(li) = listener_idx {
            if fds[li].ready(POLLIN) {
                if let Some(l) = &listener {
                    accept_ready(l, &mut conns, &mut next_id, shared);
                }
            }
        }

        for (i, &id) in conn_ids.iter().enumerate() {
            let fd = fds[base + i];
            let Some(conn) = conns.get_mut(&id) else { continue };
            if fd.failed() {
                let idle = matches!(conn.state, State::Reading)
                    && conn.buf.is_empty()
                    && conn.head.is_none();
                if !idle {
                    shared.metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
                }
                conns.remove(&id);
                continue;
            }
            let keep = match conn.state {
                State::Reading if fd.ready(POLLIN | POLLHUP) => {
                    let after = read_ready(conn, shared);
                    apply_read_outcome(conn, id, after, shared)
                }
                State::Writing { .. } if fd.ready(POLLOUT | POLLHUP) => {
                    advance_write(conn, shared)
                }
                State::Lingering if fd.ready(POLLIN | POLLHUP) => discard_ready(conn),
                _ => true,
            };
            if !keep {
                conns.remove(&id);
            }
        }

        // Deadline sweep: slow-loris peers mid-request get 408; expired
        // lingers close outright.
        let now = Instant::now();
        let expired: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| {
                matches!(c.state, State::Reading | State::Lingering) && now >= c.deadline
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let Some(conn) = conns.get_mut(&id) else { continue };
            match conn.state {
                State::Lingering => {
                    conns.remove(&id);
                }
                _ => {
                    if conn.buf.is_empty() && conn.head.is_none() {
                        // Idle probe that never sent a byte: quiet close.
                        conns.remove(&id);
                        continue;
                    }
                    shared.metrics.read_timeouts.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.responses_4xx.fetch_add(1, Ordering::Relaxed);
                    let body = error_body(
                        "request not received within the read deadline",
                        "timeout",
                    );
                    // The peer is mid-send: linger so the 408 survives
                    // the unread bytes (close would RST it away).
                    let keep = start_write(
                        conn,
                        build_response(408, &[], &body.print()),
                        Some(SHED_LINGER),
                        shared,
                    );
                    if !keep {
                        conns.remove(&id);
                    }
                }
            }
        }

        shared.metrics.reactor_loop.record(busy.elapsed());
    }
}

/// Accepts until `WouldBlock`, shedding with 503 past `max_conns`.
fn accept_ready(
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
    shared: &Shared,
) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = *next_id;
        *next_id = next_id.wrapping_add(1);
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            head: None,
            state: State::Reading,
            deadline: Instant::now() + shared.config.read_timeout,
        };
        if conns.len() >= shared.config.max_conns {
            // Connection-count backpressure: answer 503 without ever
            // reading the request.
            shared.metrics.rejected_503.fetch_add(1, Ordering::Relaxed);
            shared.metrics.responses_5xx.fetch_add(1, Ordering::Relaxed);
            let body = error_body("server overloaded, retry shortly", "overload");
            let bytes =
                build_response(503, &[("retry-after", "1".to_string())], &body.print());
            if start_write(&mut conn, bytes, Some(SHED_LINGER), shared) {
                conns.insert(id, conn);
            }
            continue;
        }
        conns.insert(id, conn);
    }
}

/// Drains readable bytes into the framing buffer and classifies where
/// the connection stands.
fn read_ready(conn: &mut Conn, shared: &Shared) -> After {
    let mut scratch = [0u8; SCRATCH];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                if conn.buf.is_empty() && conn.head.is_none() {
                    return After::CloseSilent;
                }
                let what = if conn.head.is_none() { "mid-headers" } else { "mid-body" };
                return After::Respond {
                    status: 400,
                    msg: format!("malformed HTTP request: connection closed {what}"),
                    // Peer already sent EOF: nothing left to drain.
                    linger: None,
                };
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                match try_frame(conn, shared.config.max_body) {
                    Framing::Incomplete => continue,
                    Framing::Complete => return After::Dispatch,
                    Framing::Error { status, msg } => {
                        return After::Respond {
                            status,
                            msg,
                            linger: Some(SHED_LINGER),
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return After::Keep,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return After::CloseError,
        }
    }
}

/// Advances the incremental head parse / body completeness check.
fn try_frame(conn: &mut Conn, max_body: usize) -> Framing {
    if conn.head.is_none() {
        match parse_head(&conn.buf, max_body) {
            Ok(None) => return Framing::Incomplete,
            Ok(Some(head)) => conn.head = Some(head),
            Err(HttpError::BadRequest(msg)) => {
                return Framing::Error { status: 400, msg: format!("malformed HTTP request: {msg}") }
            }
            Err(HttpError::PayloadTooLarge { limit }) => {
                return Framing::Error {
                    status: 413,
                    msg: format!("request body exceeds the {limit}-byte limit"),
                }
            }
        }
    }
    let Some(head) = &conn.head else { return Framing::Incomplete };
    let total = head.total_len();
    if conn.buf.len() > total {
        // Extra bytes after the framed request: this server is strictly
        // one-request-per-connection, so pipelined trailers are an error.
        Framing::Error {
            status: 400,
            msg: "malformed HTTP request: body longer than Content-Length".to_string(),
        }
    } else if conn.buf.len() == total {
        Framing::Complete
    } else {
        Framing::Incomplete
    }
}

/// Applies a [`read_ready`] outcome. Returns `false` when the
/// connection should be removed.
fn apply_read_outcome(conn: &mut Conn, id: u64, after: After, shared: &Shared) -> bool {
    match after {
        After::Keep => true,
        After::CloseSilent => false,
        After::CloseError => {
            shared.metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
            false
        }
        After::Respond { status, msg, linger } => {
            shared.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            let class = if status >= 500 {
                &shared.metrics.responses_5xx
            } else {
                &shared.metrics.responses_4xx
            };
            class.fetch_add(1, Ordering::Relaxed);
            let body = error_body(&msg, "http");
            start_write(conn, build_response(status, &[], &body.print()), linger, shared)
        }
        After::Dispatch => {
            shared.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            let Some(head) = conn.head.take() else { return false };
            let body = conn.buf[head.head_end + 4..].to_vec();
            let request = Request { body, ..head.request };
            conn.buf = Vec::new();
            let depth = {
                let mut queue = lock_or_recover(&shared.dispatch);
                if queue.len() >= shared.config.queue_cap {
                    drop(queue);
                    // Queue backpressure: the client learns immediately
                    // instead of waiting on an invisible line.
                    shared.metrics.rejected_503.fetch_add(1, Ordering::Relaxed);
                    shared.metrics.responses_5xx.fetch_add(1, Ordering::Relaxed);
                    let body = error_body("server overloaded, retry shortly", "overload");
                    let bytes = build_response(
                        503,
                        &[("retry-after", "1".to_string())],
                        &body.print(),
                    );
                    return start_write(conn, bytes, None, shared);
                }
                queue.push_back(Job { conn_id: id, request });
                queue.len() as u64
            };
            shared.metrics.queue_depth.store(depth, Ordering::Relaxed);
            shared.dispatch_cv.notify_one();
            conn.state = State::Dispatched;
            true
        }
    }
}

/// Puts the connection into Writing and pushes bytes as far as the
/// socket allows right now (most responses fit the send buffer, saving
/// a poll round-trip). Returns `false` when the connection is already
/// finished and should be removed.
fn start_write(
    conn: &mut Conn,
    bytes: Vec<u8>,
    linger: Option<Duration>,
    shared: &Shared,
) -> bool {
    conn.state = State::Writing { bytes, pos: 0, linger };
    advance_write(conn, shared)
}

/// Writes as much of the pending response as the socket accepts.
/// Returns `false` when the connection is finished (fully written with
/// no linger, or dead).
fn advance_write(conn: &mut Conn, shared: &Shared) -> bool {
    let State::Writing { bytes, pos, linger } = &mut conn.state else {
        return true;
    };
    while *pos < bytes.len() {
        match conn.stream.write(&bytes[*pos..]) {
            Ok(0) => {
                shared.metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Ok(n) => *pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                shared.metrics.conn_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
    }
    match *linger {
        None => false, // fully written, clean close
        Some(d) => {
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.state = State::Lingering;
            conn.deadline = Instant::now() + d;
            true
        }
    }
}

/// Discards lingering input. Returns `false` when the peer closed (or
/// errored) and the connection can finally go away.
fn discard_ready(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; SCRATCH];
    // Bounded per event so one firehose peer cannot stall the loop.
    for _ in 0..8 {
        match conn.stream.read(&mut scratch) {
            Ok(0) => return false,
            Ok(_) => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}
