//! The load generator's TCP side: connections with `TCP_NODELAY`, a
//! closed loop with a fixed pipeline window and an open loop that
//! sends on a schedule regardless of replies.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::workload::Req;

/// How long a request may go unanswered before the connection gives up
/// and counts everything still outstanding as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One line-protocol connection. `TCP_NODELAY` is set so a Nagle stall
/// seen by the benchmark can only come from the server's side.
pub struct Conn {
    stream: TcpStream,
    /// Received bytes not yet returned as a reply line.
    buf: Vec<u8>,
    /// Nonblocking reads polled every [`POLL_INTERVAL`]. Socket read
    /// timeouts tick at the kernel's jiffy (up to 4 ms), too coarse for an
    /// open-loop sender that must wake at each due time.
    polled: bool,
}

/// Sleep between nonblocking read attempts of a polled connection.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, buf: Vec::new(), polled: false })
    }

    /// Switches to polled nonblocking reads (for the open loop).
    pub fn polled(mut self) -> std::io::Result<Conn> {
        self.stream.set_nonblocking(true)?;
        self.polled = true;
        Ok(self)
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut sent = 0;
        while sent < buf.len() {
            match self.stream.write(&buf[sent..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                // A polled socket whose send buffer is full: the server is
                // not reading (per-connection quota); wait for it.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Waits up to `timeout` for one reply line; `Ok(None)` when none
    /// completed in time (a partial line is kept for the next call). The
    /// whole call, not each read, is bounded by `timeout`, so a large
    /// reply trickling in cannot hold an open-loop sender past its due
    /// time.
    pub fn recv_within(&mut self, timeout: Duration) -> std::io::Result<Option<String>> {
        let deadline = Instant::now() + timeout;
        let mut scanned = 0;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(pos) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(scanned + pos + 1);
                let line = std::mem::replace(&mut self.buf, rest);
                let line = String::from_utf8(line).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                return Ok(Some(line.trim_end().to_string()));
            }
            scanned = self.buf.len();
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            if !self.polled {
                self.stream.set_read_timeout(Some(left))?;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if self.polled {
                        std::thread::sleep(left.min(POLL_INTERVAL));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocking request/response, for set-up and end-of-run control ops.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line).map_err(|e| format!("send {line}: {e}"))?;
        self.recv_within(REPLY_TIMEOUT)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| format!("no reply to {line} within {REPLY_TIMEOUT:?}"))
    }
}

/// One request as the client saw it.
pub struct Sample {
    pub req: Req,
    /// When the request was due: its send time in a closed loop, its
    /// scheduled time in an open loop.
    pub due: Instant,
    pub sent: Instant,
    /// When the reply arrived; `None` if it never did.
    pub done: Option<Instant>,
    /// Reply length in bytes, before compaction.
    pub reply_bytes: usize,
    /// The reply with every `vertices` array replaced by its digest
    /// (see [`compact_reply`]).
    pub reply: String,
}

impl Sample {
    /// Client-observed latency in milliseconds, counted from the due time.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| crate::stats::latency_from_due_ms(self.due, d))
    }
}

/// FNV-1a, 64 bit: a digest of a vertex list as the wire renders it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Replaces the contents of a reply's `"vertices":[...]` array with its
/// FNV-1a digest (`"vertices":"#<hex>"`), so a 20k-vertex region reply is
/// kept for the oracle in a few dozen bytes.
pub fn compact_reply(line: &str) -> String {
    const KEY: &str = "\"vertices\":[";
    let Some(at) = line.find(KEY) else { return line.to_string() };
    let body = at + KEY.len();
    let Some(len) = line[body..].find(']') else { return line.to_string() };
    let digest = fnv1a(&line.as_bytes()[body..body + len]);
    format!("{}\"vertices\":\"#{digest:016x}\"{}", &line[..at], &line[body + len + 1..])
}

fn finish(pending: &mut VecDeque<Sample>, reply: String, now: Instant, out: &mut Vec<Sample>) {
    if let Some(mut s) = pending.pop_front() {
        s.done = Some(now);
        s.reply_bytes = reply.len();
        s.reply = compact_reply(&reply);
        out.push(s);
    }
}

/// Closed loop: keeps exactly `window` requests outstanding until `until`,
/// then drains. `next` produces each request and its line.
pub fn closed_loop(
    conn: &mut Conn,
    window: usize,
    until: Instant,
    mut next: impl FnMut() -> (Req, String),
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    let mut pending: VecDeque<Sample> = VecDeque::with_capacity(window);
    loop {
        while pending.len() < window && Instant::now() < until {
            let (req, line) = next();
            let sent = Instant::now();
            conn.send(&line).map_err(|e| format!("send: {e}"))?;
            pending.push_back(Sample {
                req,
                due: sent,
                sent,
                done: None,
                reply_bytes: 0,
                reply: String::new(),
            });
        }
        if pending.is_empty() {
            return Ok(out);
        }
        match conn.recv_within(REPLY_TIMEOUT).map_err(|e| format!("recv: {e}"))? {
            Some(reply) => finish(&mut pending, reply, Instant::now(), &mut out),
            None => {
                // Timed out: everything outstanding is unanswered.
                out.extend(pending.drain(..));
                return Ok(out);
            }
        }
    }
}

/// Open loop: sends request `i` at `schedule[i]` whether or not earlier
/// replies have arrived, reading replies in between. Latency counts from
/// the due time; `sent − due` is the generator's own lateness.
pub fn open_loop(
    conn: &mut Conn,
    schedule: &[Instant],
    mut next: impl FnMut() -> (Req, String),
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::with_capacity(schedule.len());
    let mut pending: VecDeque<Sample> = VecDeque::new();
    let mut i = 0;
    let mut last_reply = Instant::now();
    loop {
        let now = Instant::now();
        while i < schedule.len() && schedule[i] <= now {
            let (req, line) = next();
            let sent = Instant::now();
            conn.send(&line).map_err(|e| format!("send: {e}"))?;
            pending.push_back(Sample {
                req,
                due: schedule[i],
                sent,
                done: None,
                reply_bytes: 0,
                reply: String::new(),
            });
            i += 1;
        }
        if i == schedule.len() && pending.is_empty() {
            return Ok(out);
        }
        let wait = if i < schedule.len() {
            schedule[i].saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        match conn.recv_within(wait).map_err(|e| format!("recv: {e}"))? {
            Some(reply) => {
                last_reply = Instant::now();
                finish(&mut pending, reply, last_reply, &mut out);
            }
            None if !pending.is_empty() && last_reply.elapsed() > REPLY_TIMEOUT => {
                out.extend(pending.drain(..));
                return Ok(out);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_replaces_only_the_vertex_list() {
        let line = r#"{"ok":true,"space":"core","id":4,"kappa":3,"vertices":[4,7],"micros":12}"#;
        let c = compact_reply(line);
        assert_eq!(
            c,
            format!(
                r##"{{"ok":true,"space":"core","id":4,"kappa":3,"vertices":"#{:016x}","micros":12}}"##,
                fnv1a(b"4,7")
            )
        );
        let plain = r#"{"ok":true,"k":2,"total":0,"nuclei":[],"micros":3}"#;
        assert_eq!(compact_reply(plain), plain);
    }
}
