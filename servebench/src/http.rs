//! A minimal HTTP/1.1 client over one keep-alive connection.
//!
//! The benchmark's load generator: one `Conn` per closed-loop client. A
//! response is framed by `Content-Length` (the NETMARK servers always send
//! one); a `Connection: close` answer — the server's 429 shed response
//! among them — drops the socket, and the next request reconnects.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a response body the client accepts.
const MAX_BODY: usize = 256 << 20;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header fields in wire order (names as sent).
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// The server closes the connection after this response.
    pub close: bool,
}

impl Response {
    /// True for a 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Reads one response off `r`. An EOF before the status line is
/// `UnexpectedEof`; a body shorter than its `Content-Length` is an error.
pub fn read_response<R: BufRead>(r: &mut R) -> std::io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("not an HTTP/1.x status line: {line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line: {line:?}")))?;
    let mut headers = Vec::new();
    let mut len: Option<usize> = None;
    let mut close = version == "HTTP/1.0";
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("EOF inside the header section"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        let (k, v) = l
            .split_once(':')
            .ok_or_else(|| bad(format!("bad header line: {l:?}")))?;
        let (k, v) = (k.trim().to_string(), v.trim().to_string());
        if k.eq_ignore_ascii_case("content-length") {
            let n: usize = v.parse().map_err(|_| bad("bad Content-Length"))?;
            if n > MAX_BODY {
                return Err(bad(format!("body of {n} bytes exceeds the client limit")));
            }
            len = Some(n);
        } else if k.eq_ignore_ascii_case("connection") {
            close = v.eq_ignore_ascii_case("close");
        } else if k.eq_ignore_ascii_case("transfer-encoding") {
            return Err(bad("chunked responses are not supported"));
        }
        headers.push((k, v));
    }
    let mut body = Vec::new();
    match len {
        Some(n) => {
            body.resize(n, 0);
            r.read_exact(&mut body)?;
        }
        // No length: the body runs to EOF, and the connection is spent.
        None => {
            r.take(MAX_BODY as u64).read_to_end(&mut body)?;
            close = true;
        }
    }
    Ok(Response {
        status,
        headers,
        body,
        close,
    })
}

/// One client connection to `addr`, reconnecting as needed.
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Conn {
    /// A connection (opened lazily) with `timeout` for connect, read and
    /// write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Conn {
        Conn {
            addr,
            timeout,
            stream: None,
            connects: 0,
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(self.timeout))?;
            s.set_write_timeout(Some(self.timeout))?;
            self.connects += 1;
            self.stream = Some(BufReader::with_capacity(64 << 10, s));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one request and reads its response. On any I/O error the
    /// connection is dropped (the next call reconnects) and the error is
    /// returned; the request is not retried.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> std::io::Result<Response> {
        let result = self.exchange(method, target, body);
        match &result {
            Ok(resp) if !resp.close => {}
            _ => self.stream = None,
        }
        result
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<Response> {
        let host = self.addr;
        let s = self.stream()?;
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        s.get_mut().write_all(&wire)?;
        read_response(s)
    }

    /// `GET target`.
    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        self.request("GET", target, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    #[test]
    fn frames_back_to_back_responses_by_content_length() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 201 Created\r\ncontent-length: 0\r\n\r\n";
        let mut r = Cursor::new(&wire[..]);
        let a = read_response(&mut r).unwrap();
        assert_eq!(
            (a.status, a.body.as_slice(), a.close),
            (200, &b"hello"[..], false)
        );
        let b = read_response(&mut r).unwrap();
        assert_eq!((b.status, b.body.len(), b.close), (201, 0, false));
        let eof = read_response(&mut r).unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_response(&mut Cursor::new(&short[..])).is_err());
        let garbage = b"SSH-2.0-OpenSSH\r\n\r\n";
        assert!(read_response(&mut Cursor::new(&garbage[..])).is_err());
        let huge = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_response(&mut Cursor::new(huge.as_bytes())).is_err());
    }

    #[test]
    fn shed_response_closes_and_the_next_request_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Connection 1: two keep-alive answers, then a 429 + close.
            let (s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut w = s;
            for i in 0..3 {
                let mut line = String::new();
                loop {
                    line.clear();
                    r.read_line(&mut line).unwrap();
                    if line == "\r\n" {
                        break;
                    }
                }
                let resp = if i < 2 {
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nConnection: keep-alive\r\n\r\n{i}"
                    )
                } else {
                    "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy".to_string()
                };
                w.write_all(resp.as_bytes()).unwrap();
            }
            drop(w);
            // Connection 2: one answer.
            let (s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut line = String::new();
            loop {
                line.clear();
                r.read_line(&mut line).unwrap();
                if line == "\r\n" {
                    break;
                }
            }
            let mut w = s;
            w.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .unwrap();
        });
        let mut c = Conn::new(addr, Duration::from_secs(5));
        assert_eq!(c.get("/a").unwrap().body, b"0");
        assert_eq!(c.get("/b").unwrap().body, b"1");
        assert_eq!(c.connects, 1, "keep-alive reuses the connection");
        let shed = c.get("/c").unwrap();
        assert_eq!(shed.status, 429);
        assert!(!shed.ok() && shed.close);
        assert!(shed
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
        assert_eq!(c.get("/d").unwrap().body, b"ok");
        assert_eq!(c.connects, 2, "a closed connection is reopened");
        server.join().unwrap();
    }
}
