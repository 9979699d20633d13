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
//! Everything interesting —
//! admission, backpressure, deadlines, metrics — lives below in the
//! server, so a socket client and an in-process test observe identical
//! behavior.

use crate::server::Server;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

/// The longest request line the transport reads, in bytes before its
/// `\n`. The benchmark's largest requests, `load_session`s carrying a
/// saved session, are far below it: a traced `integrate` run averages
/// 8.5 KB per snapshot.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// How long a closing connection waits for the client's unread input.
const CLOSE_WAIT: Duration = Duration::from_millis(200);

/// Serve `listener` until a client issues `shutdown`, then drain and
/// return. Consumes the server, which needs every connection thread
/// joined first.
pub fn serve(listener: TcpListener, server: Server) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    // A scope (rather than detached spawns) guarantees every connection
    // thread has joined before the scope returns, so the server can be
    // consumed by `shutdown` below without reference counting.
    let accepted = thread::scope(|scope| {
        loop {
            let (stream, _) = listener.accept()?;
            if server.draining() {
                return Ok(());
            }
            let srv = &server;
            scope.spawn(move || {
                let _ = serve_stream(stream, srv, addr);
            });
        }
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

/// One accepted socket: answered on a no-delay socket until EOF; when
/// a request started the drain, the acceptor is woken (it blocks in
/// `accept`) so the listener loop notices and exits.
fn serve_stream(
    stream: TcpStream,
    server: &Server,
    addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let reader = BufReader::new(stream.try_clone()?);
    if handle_connection(reader, &stream, server)? {
        let _ = TcpStream::connect(addr);
    }
    close_gently(&stream)
}

/// Close after the last answer without resetting the connection. A
/// socket closed with unread input (the rest of an over-long line, or
/// requests pipelined behind it) sends a reset, which can destroy
/// answers the client has not read yet. So send FIN first, then read
/// and drop at most [`MAX_LINE_BYTES`] more, for at most [`CLOSE_WAIT`]
/// per read, until the client closes its side.
fn close_gently(stream: &TcpStream) -> io::Result<()> {
    stream.shutdown(Shutdown::Write)?;
    stream.set_read_timeout(Some(CLOSE_WAIT))?;
    // A timeout or a reset here only ends the wait.
    let _ = io::copy(&mut stream.take(MAX_LINE_BYTES as u64), &mut io::sink());
    Ok(())
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
