//! The front doors: a `copycat-serve` child process behind a TCP
//! socket, and the durable in-process `Router`.

use copycat_serve::router::Router;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a client waits for one response before counting a timeout.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// Something that answers one request line with one response line.
pub trait Front {
    /// Send `line`, wait for its response.
    fn call(&mut self, line: &str) -> Result<String, String>;
}

/// A `copycat-serve` child in its default (TCP) mode.
pub struct ServerProc {
    child: Child,
    /// Kept open so the child never writes into a closed pipe.
    _stderr: BufReader<ChildStderr>,
    /// The port it listens on.
    pub port: u16,
    /// Requests written to it over every connection.
    sent: Arc<AtomicU64>,
}

/// The flags the server is started with (recorded in the results).
pub fn server_flags(port: u16) -> Vec<String> {
    vec!["--addr".to_string(), format!("127.0.0.1:{port}")]
}

impl ServerProc {
    /// Start the server on a free port and wait until it listens. The
    /// binary prints its bound address only after `bind`, so the first
    /// stderr line is the readiness signal. A port taken between our
    /// probe and the child's bind is retried on a fresh port.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut last = String::new();
        for _ in 0..5 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let mut child = Command::new(bin)
                .args(server_flags(port))
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
            let Some(stderr) = child.stderr.take() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("child has no stderr pipe".to_string());
            };
            let mut stderr = BufReader::new(stderr);
            let mut first = String::new();
            let _ = stderr.read_line(&mut first);
            if first.starts_with("copycat-serve listening") {
                return Ok(ServerProc {
                    child,
                    _stderr: stderr,
                    port,
                    sent: Arc::default(),
                });
            }
            let _ = child.kill();
            let _ = child.wait();
            last = first.trim().to_string();
        }
        Err(format!("server did not start: {last}"))
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let mut conn = Conn::connect(self.port)?;
        conn.sent = Some(Arc::clone(&self.sent));
        Ok(conn)
    }

    /// Requests written to this server so far.
    pub fn sent(&self) -> u64 {
        // relaxed: a count read after the writers' calls have returned
        self.sent.load(Ordering::Relaxed)
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// CPU seconds the server process has used.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Graceful stop: `shutdown` on a fresh connection, then wait for the
    /// process to drain and exit. All other connections must be closed
    /// first (the transport joins every connection before returning).
    pub fn shutdown(mut self) -> Result<(), String> {
        let answered = self
            .connect()
            .and_then(|mut c| c.call(r#"{"id":0,"op":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown".to_string());
                }
            }
        }
        answered.map(|_| ())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// User plus system CPU seconds a process has run, from its
/// `/proc/<pid>/stat` (clock ticks of 1/100 s). The kernel charges time
/// the hypervisor steals from the VM to no process, so this stays put
/// when the host is busy while wall-clock figures swing.
pub fn cpu_seconds(stat_path: &str) -> f64 {
    let text = std::fs::read_to_string(stat_path).unwrap_or_default();
    let fields: Vec<&str> = text
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After the command name: state is field 3, utime 14, stime 15.
    (tick(11) + tick(12)) / 100.0
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Non-blocking socket calls between yields while a client waits.
const SPINS_PER_YIELD: u32 = 64;

/// One client connection: `TCP_NODELAY`, each request line written in a
/// single write, responses read line by line.
///
/// The socket is non-blocking and the client busy-waits on it, yielding
/// now and then so a server thread sharing its CPU can run. A client
/// that slept in `read` would add its own wake-up to every request: on
/// a VM that is a halted vCPU woken by an interrupt, whose cost follows
/// the host's load rather than the program.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read past the last response line.
    pending: Vec<u8>,
    chunk: Vec<u8>,
    out: Vec<u8>,
    sent: Option<Arc<AtomicU64>>,
}

impl Conn {
    /// Connect to a local server.
    pub fn connect(port: u16) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
            chunk: vec![0; 64 * 1024],
            out: Vec::new(),
            sent: None,
        })
    }

    /// The response line, once it has arrived in full.
    fn take_line(&mut self, from: usize) -> Option<Result<String, String>> {
        let end = from + self.pending[from..].iter().position(|&b| b == b'\n')?;
        let line = self.pending[..end].to_vec();
        self.pending.drain(..=end);
        Some(String::from_utf8(line).map_err(|e| format!("read: {e}")))
    }
}

/// One more turn of a busy wait: a spin, or a yield; past `deadline`,
/// a timeout.
fn spin(spins: &mut u32, deadline: Instant) -> Result<(), String> {
    *spins += 1;
    if spins.is_multiple_of(SPINS_PER_YIELD) {
        if Instant::now() >= deadline {
            return Err(format!("no response within {RESPONSE_TIMEOUT:?}"));
        }
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
    Ok(())
}

impl Front for Conn {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        let mut spins = 0;
        let mut written = 0;
        while written < self.out.len() {
            match self.stream.write(&self.out[written..]) {
                Ok(0) => return Err("write: connection closed".to_string()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => spin(&mut spins, deadline)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if let Some(sent) = &self.sent {
            // relaxed: a statistic, read only after this call returns
            sent.fetch_add(1, Ordering::Relaxed);
        }
        let mut scanned = 0;
        loop {
            if let Some(line) = self.take_line(scanned) {
                return line;
            }
            scanned = self.pending.len();
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err("connection closed".to_string()),
                Ok(n) => self.pending.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => spin(&mut spins, deadline)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// The durable router, called in-process.
pub struct RouterFront<'a>(pub &'a Router);

impl Front for RouterFront<'_> {
    fn call(&mut self, line: &str) -> Result<String, String> {
        Ok(self.0.handle_line(line))
    }
}

/// Whether a response is `ok:true`. Ids are numeric, so the envelope
/// reads `{"id":<digits>,"ok":true,…`.
pub fn is_ok(resp: &str) -> bool {
    body(resp).starts_with("\"ok\":true,")
}

/// The response without its echoed id, for byte comparison of the same
/// request sent under different ids.
pub fn body(resp: &str) -> &str {
    resp.split_once(',').map_or(resp, |(_, rest)| rest)
}

/// The filesystem type holding `path` (longest mount-point prefix in
/// `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path: PathBuf = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}
