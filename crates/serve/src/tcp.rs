//! The TCP transport: a thin byte pump over [`Server::handle_line`].
//!
//! One thread per connection, line-delimited JSON both ways. Each
//! response leaves in a single write on a `TCP_NODELAY` socket: a
//! response split across writes would hold its tail in Nagle's buffer
//! until the client's delayed ACK (~40 ms). Everything interesting —
//! admission, backpressure, deadlines, metrics — lives below in the
//! server, so a socket client and an in-process test observe identical
//! behavior.

use crate::server::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

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
                let _ = handle_connection(stream, srv, addr);
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

fn handle_connection(
    stream: TcpStream,
    server: &Server,
    addr: std::net::SocketAddr,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        // Explicit framing instead of `BufRead::lines()`: a final
        // request whose connection closed before the terminating
        // newline is still a complete frame (read_until returns it
        // with n > 0), and a non-UTF-8 payload is answered with the
        // server's parse error instead of killing the connection.
        let n = reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(()); // clean EOF
        }
        trim_line_terminator(&mut line);
        let text = String::from_utf8_lossy(&line);
        if text.trim().is_empty() {
            continue;
        }
        let mut response = server.handle_line(&text);
        // The response's copy-out reserved this byte: no reallocation,
        // and the whole line still goes out in one write.
        response.push('\n');
        writer.write_all(response.as_bytes())?;
        if server.draining() {
            // Wake the acceptor (it blocks in accept) so the listener
            // loop notices the drain and exits.
            let _ = TcpStream::connect(addr);
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::trim_line_terminator;

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
