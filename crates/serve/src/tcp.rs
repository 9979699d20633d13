//! The TCP transport: a thin byte pump over [`Server::handle_line`].
//!
//! One thread per connection, line-delimited JSON both ways. Each
//! response leaves in a single write on a `TCP_NODELAY` socket: a
//! response split across writes would hold its tail in Nagle's buffer
//! until the client's delayed ACK (~40 ms). A request line longer than
//! [`MAX_LINE_BYTES`] is answered `bad_request` and the connection
//! closes, so no client can make the transport buffer without bound.
//! The close is gentle: the server half-closes, then drops a bounded
//! amount of unread input, so a reset cannot destroy the last answer.
//!
//! **Spin, then park.** An interactive client sends its next request
//! microseconds after reading an answer. A thread asleep in `read`
//! pays a wake-up for it, and on a VM that is a halted vCPU woken by
//! an interrupt, often longer than the request itself. So after each
//! answer a connection polls its non-blocking socket for [`SPIN_US`],
//! yielding on every poll, and only then parks in a blocking `read`
//! (Linux's guest halt-polling answers the same cost the same way).
//! The spin is gated, because spinning threads take CPU from the
//! connections that have work: only the connection that started the
//! server's most recent request may spin, at most one spins at a
//! time, and the spinner parks as soon as another connection starts a
//! request. A parked read wakes every [`CLOSE_WAIT`] to see whether the
//! server is draining, so an idle client cannot hold `serve` open after
//! `shutdown`, and an idle server makes no more than those wake-ups. A
//! response write that finds the client's buffers full falls back to
//! a blocking write, so each response still leaves in one `write_all`.
//!
//! Everything interesting — admission, backpressure, deadlines,
//! metrics — lives below in the server, so a socket client and an
//! in-process test observe identical behavior.

use crate::deadline::Deadline;
use crate::server::Server;
use std::cell::Cell;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

/// The longest request line the transport reads, in bytes before its
/// `\n`. The benchmark's largest requests, `load_session`s carrying a
/// saved session, are far below it: a traced `integrate` run averages
/// 8.5 KB per snapshot.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// How long one blocking read waits: a parked connection looks this
/// often whether the server is draining, and a closing one waits this
/// long for the client's unread input.
const CLOSE_WAIT: Duration = Duration::from_millis(200);

/// How long a connection polls for its client's next request before it
/// parks, in microseconds: longer than a closed-loop client's turn-around
/// on loopback, far shorter than a user's pause.
const SPIN_US: u64 = 30;

/// Which connection may spin. Connections are numbered from 1 in
/// accept order; 0 is none.
#[derive(Default)]
struct SpinGate {
    /// The connection that started the server's most recent request.
    latest: AtomicU64,
    /// The connection spinning now.
    spinner: AtomicU64,
}

/// Serve `listener` until a client issues `shutdown`, then drain and
/// return. Consumes the server, which needs every connection thread
/// joined first.
pub fn serve(listener: TcpListener, server: Server) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let gate = SpinGate::default();
    // A scope (rather than detached spawns) guarantees every connection
    // thread has joined before the scope returns, so the server can be
    // consumed by `shutdown` below without reference counting.
    let accepted = thread::scope(|scope| {
        for id in 1u64.. {
            let (stream, _) = listener.accept()?;
            if server.draining() {
                break;
            }
            let conn = Conn { stream, id, gate: &gate, server: &server, nonblocking: Cell::new(false) };
            scope.spawn(move || {
                let _ = serve_stream(conn, addr);
            });
        }
        Ok(())
    });
    // Drain even when the accept loop died on an I/O error: admitted
    // work still gets its responses.
    server.shutdown();
    accepted
}

/// Strip one trailing line terminator — `\n`, `\r\n`, or a bare `\r`
/// left by a client that frames with CRLF but whose `\n` landed in the
/// next read. Interior bytes are untouched: the payload is JSON, and a
/// stray `\r` before the closing brace must stay a parse error.
fn trim_line_terminator(line: &mut Vec<u8>) {
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
}

/// One accepted socket: answered on a no-delay socket until EOF or
/// drain; when a request started the drain, the acceptor is woken (it
/// blocks in `accept`) so the listener loop notices and exits.
fn serve_stream(conn: Conn<'_>, addr: SocketAddr) -> io::Result<()> {
    conn.stream.set_nodelay(true)?;
    conn.stream.set_read_timeout(Some(CLOSE_WAIT))?;
    if handle_connection(BufReader::new(&conn), &conn, conn.server)? {
        let _ = TcpStream::connect(addr);
    }
    conn.set_nonblocking(false)?;
    close_gently(&conn.stream)
}

/// Close after the last answer without resetting the connection. A
/// socket closed with unread input (the rest of an over-long line, or
/// requests pipelined behind it) sends a reset, which can destroy
/// answers the client has not read yet. So send FIN first, then read
/// and drop at most [`MAX_LINE_BYTES`] more, for at most [`CLOSE_WAIT`]
/// per read (the blocking socket's read timeout), until the client
/// closes its side.
fn close_gently(stream: &TcpStream) -> io::Result<()> {
    stream.shutdown(Shutdown::Write)?;
    // A timeout or a reset here only ends the wait.
    let _ = io::copy(&mut stream.take(MAX_LINE_BYTES as u64), &mut io::sink());
    Ok(())
}

/// One accepted connection: its socket as the reader and the writer of
/// [`handle_connection`], spinning and parking as the module doc says.
struct Conn<'a> {
    stream: TcpStream,
    id: u64,
    gate: &'a SpinGate,
    server: &'a Server,
    /// The socket's mode, so it is switched only when it changes.
    nonblocking: Cell<bool>,
}

impl Conn<'_> {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        if self.nonblocking.get() != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking.set(on);
        }
        Ok(())
    }

    /// Whether another connection started a request since this one did.
    fn superseded(&self) -> bool {
        // relaxed: a scheduling hint; a stale read costs at most one
        // more poll or one early park, never a wrong answer.
        self.gate.latest.load(Ordering::Relaxed) != self.id
    }

    /// Poll the non-blocking socket for up to [`SPIN_US`], if the gate
    /// lets this connection spin; `None` when nothing arrived.
    fn spin(&self, buf: &mut [u8]) -> Option<io::Result<usize>> {
        if self.superseded() {
            return None;
        }
        // relaxed: the token guards no other memory; it only keeps a
        // second connection from spinning at the same time.
        if self.gate.spinner.compare_exchange(0, self.id, Ordering::Relaxed, Ordering::Relaxed).is_err() {
            return None;
        }
        let polled = self.poll(buf);
        // relaxed: as above, the token guards no other memory.
        self.gate.spinner.store(0, Ordering::Relaxed);
        polled
    }

    fn poll(&self, buf: &mut [u8]) -> Option<io::Result<usize>> {
        if let Err(e) = self.set_nonblocking(true) {
            return Some(Err(e));
        }
        let clock = Deadline::starting_now(None);
        loop {
            match (&self.stream).read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                read => return Some(read),
            }
            if clock.spent_us() >= SPIN_US || self.superseded() {
                return None;
            }
            thread::yield_now();
        }
    }

    /// Block in `read` until input, EOF or drain (read as EOF), waking
    /// every [`CLOSE_WAIT`] to look.
    fn park(&self, buf: &mut [u8]) -> io::Result<usize> {
        self.set_nonblocking(false)?;
        loop {
            match (&self.stream).read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.server.draining() {
                        return Ok(0);
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                read => return read,
            }
        }
    }
}

impl Read for &Conn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = match self.spin(buf) {
            Some(read) => read?,
            None => self.park(buf)?,
        };
        if read > 0 {
            // relaxed: see `superseded`.
            self.gate.latest.store(self.id, Ordering::Relaxed);
        }
        Ok(read)
    }
}

impl Write for &Conn<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match (&self.stream).write(buf) {
            // The client's buffers are full: wait for room as a
            // blocking socket does.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                self.set_nonblocking(false)?;
                (&self.stream).write(buf)
            }
            written => written,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Answer each request line of `reader` on `writer` until EOF, until
/// the server starts draining, or until a line runs past
/// [`MAX_LINE_BYTES`] (answered `bad_request`, its remainder unread);
/// returns whether the server is draining. Every response, its newline
/// included, goes to `writer` in one `write_all` call, so a writer that
/// accepts whole buffers sees one `write` per response.
pub fn handle_connection(
    mut reader: impl BufRead,
    mut writer: impl Write,
    server: &Server,
) -> std::io::Result<bool> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        // Explicit framing instead of `BufRead::lines()`: a final
        // request whose connection closed before the terminating
        // newline is still a complete frame (read_until returns it
        // with n > 0), and a non-UTF-8 payload is answered with the
        // server's parse error instead of killing the connection.
        let n = Read::take(&mut reader, MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(false); // clean EOF
        }
        let too_long = n > MAX_LINE_BYTES && line.last() != Some(&b'\n');
        let mut response = if too_long {
            let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            server.answer(Err(("null", message))).0
        } else {
            trim_line_terminator(&mut line);
            let text = String::from_utf8_lossy(&line);
            if text.trim().is_empty() {
                continue;
            }
            server.handle_line(&text)
        };
        // The response's copy-out reserved this byte: no reallocation,
        // and the whole line still goes out in one write.
        response.push('\n');
        writer.write_all(response.as_bytes())?;
        if too_long {
            return Ok(false);
        }
        if server.draining() {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{handle_connection, trim_line_terminator, MAX_LINE_BYTES};
    use crate::server::Server;
    use copycat_util::json::Json;

    /// `{"id":1,"op":"ping","pad":"xx…"}`, padded to exactly `len` bytes.
    fn ping_of_len(len: usize) -> String {
        let head = r#"{"id":1,"op":"ping","pad":""#;
        format!("{head}{}\"}}", "x".repeat(len - head.len() - 2))
    }

    /// The answers `handle_connection` writes for `input`, one per line.
    fn answers(input: &str) -> Vec<Json> {
        let server = Server::with_defaults();
        let mut out = Vec::new();
        let draining = handle_connection(input.as_bytes(), &mut out, &server).expect("in-memory I/O");
        assert!(!draining);
        let text = String::from_utf8(out).expect("UTF-8 answers");
        text.lines().map(|l| Json::parse(l).expect("JSON answer")).collect()
    }

    #[test]
    fn a_line_at_the_cap_is_answered() {
        let at_cap = ping_of_len(MAX_LINE_BYTES);
        assert_eq!(at_cap.len(), MAX_LINE_BYTES);
        let got = answers(&format!("{at_cap}\n{}\n{at_cap}", ping_of_len(40)));
        assert_eq!(got.len(), 3, "every line answered, the unterminated last one too");
        for answer in got {
            assert_eq!(answer["result"]["pong"].as_bool(), Some(true), "{answer}");
        }
    }

    #[test]
    fn a_line_over_the_cap_is_a_bad_request_then_the_connection_closes() {
        let over = ping_of_len(MAX_LINE_BYTES + 1);
        let got = answers(&format!("{}\n{over}\n{}\n", ping_of_len(40), ping_of_len(40)));
        assert_eq!(got.len(), 2, "nothing after the long line is read: {got:?}");
        assert_eq!(got[0]["result"]["pong"].as_bool(), Some(true));
        assert_eq!(got[1]["id"], Json::Null);
        assert_eq!(got[1]["error"]["kind"].as_str(), Some("bad_request"));
        let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
        assert_eq!(got[1]["error"]["message"].as_str(), Some(message.as_str()));
    }

    #[test]
    fn terminator_trim_handles_all_framings() {
        for (input, want) in [
            (&b"{\"id\":1}\n"[..], &b"{\"id\":1}"[..]),
            (b"{\"id\":1}\r\n", b"{\"id\":1}"),
            (b"{\"id\":1}\r", b"{\"id\":1}"),
            (b"{\"id\":1}", b"{\"id\":1}"),
            (b"\r\n", b""),
            (b"", b""),
            // Interior CR is payload, not framing.
            (b"{\"s\":\"a\rb\"}\n", b"{\"s\":\"a\rb\"}"),
        ] {
            let mut v = input.to_vec();
            trim_line_terminator(&mut v);
            assert_eq!(v, want, "input {input:?}");
        }
    }
}
