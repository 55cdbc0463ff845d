//! Hand-rolled HTTP/1.1 framing for `gmark serve` — no dependencies,
//! matching the workspace's offline rule.
//!
//! The dialect is deliberately small: `Content-Length` request bodies
//! only (no chunked *uploads*), capped head and body sizes, and two
//! response shapes — fixed `Content-Length` or `Transfer-Encoding:
//! chunked` (how artifact bytes stream back without knowing their size
//! up front, and without buffering the socket write). Connections are
//! persistent by default (HTTP/1.1 keep-alive semantics: reuse unless
//! the client sends `Connection: close`, honor `keep-alive` from
//! HTTP/1.0 clients); the per-connection request loop lives in the
//! routes layer, which decides per response whether the connection
//! stays open and tells [`write_response`]/[`write_chunked`] what
//! `Connection:` header to emit. The client half lives at the bottom:
//! the reusable [`Client`], which frames responses exactly so the same
//! TCP connection can carry many requests (and tolerates early error
//! responses), and one-shot [`fetch`], a `Client` that sends
//! `Connection: close`; the integration tests and bench drivers use
//! both, curl fills the same role in CI.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Chunk size of chunked responses.
const CHUNK_BYTES: usize = 64 * 1024;

/// One parsed request: method, split target, lowercased headers, body.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// The path half of the request target (before `?`), percent-decoded.
    pub path: String,
    /// The query half, percent-decoded into `(key, value)` pairs in
    /// arrival order. Valueless keys get an empty value.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client wants the connection kept open afterwards:
    /// HTTP/1.1 defaults to yes unless `Connection: close`, HTTP/1.0 to
    /// no unless `Connection: keep-alive`. The server may still close
    /// (cap reached, shutdown, idle) — this is the client's side of the
    /// negotiation only.
    pub keep_alive: bool,
}

impl Request {
    /// The first query parameter with this name, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. [`HttpError::status`] maps each case
/// to the response the server writes before closing the connection.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed (client went away, timeout): nothing to answer.
    Io(io::Error),
    /// The client closed the connection cleanly before sending any
    /// byte of a next request — the normal end of a kept-alive
    /// connection, not a fault.
    Closed,
    /// The bytes were not an HTTP/1.x request we understand.
    Malformed(String),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The declared body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// A body-carrying method arrived without `Content-Length`.
    LengthRequired,
}

impl HttpError {
    /// The response status for this failure (`0` = connection-level,
    /// nothing can be written).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 0,
            HttpError::Closed => 0,
            HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge(_) => 413,
            HttpError::LengthRequired => 411,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Closed => write!(f, "connection closed before a request"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            HttpError::LengthRequired => write!(f, "POST requires Content-Length"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Reads and parses one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    // Read until the blank line ending the head, never past the cap.
    let mut head = Vec::with_capacity(1024);
    let mut byte = [0u8; 1];
    let head_end = loop {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        let n = stream.read(&mut byte)?;
        if n == 0 {
            // EOF before the first byte is a clean keep-alive close;
            // EOF inside a head is a fault.
            return Err(if head.is_empty() {
                HttpError::Closed
            } else {
                HttpError::Malformed("connection closed mid-head".into())
            });
        }
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break head.len();
        }
    };
    let head_text = std::str::from_utf8(&head[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n'));

    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("no method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("no request target".into()))?;
    let http10 = match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => v == "HTTP/1.0",
        _ => return Err(HttpError::Malformed("not an HTTP/1.x request".into())),
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path);
    let query = raw_query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without colon: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive: false,
    };
    request.keep_alive = match request.header("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => !http10,
    };

    let content_length = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        None if request.method == "POST" || request.method == "PUT" => {
            return Err(HttpError::LengthRequired);
        }
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request { body, ..request })
}

/// The standard reason phrase of the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes one fixed-length response and flushes. `keep_alive` picks the
/// `Connection:` header — the caller (the per-connection request loop)
/// owns the decision and must actually close the stream when it says
/// `close`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    head.push_str(connection_header(keep_alive));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    }
}

/// Writes one `Transfer-Encoding: chunked` response and flushes: the
/// artifact-streaming shape of `POST /v1/run`. The payload bytes the
/// client reassembles are exactly `body` — chunking is framing, not
/// content — so artifact responses stay byte-identical to the CLI files.
pub fn write_chunked(
    stream: &mut TcpStream,
    status: u16,
    headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Transfer-Encoding: chunked\r\n");
    head.push_str(connection_header(keep_alive));
    stream.write_all(head.as_bytes())?;
    for chunk in body.chunks(CHUNK_BYTES) {
        write!(stream, "{:x}\r\n", chunk.len())?;
        stream.write_all(chunk)?;
        stream.write_all(b"\r\n")?;
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// A plain-text error response body (`gmark: <message>`), mirroring the
/// CLI's stderr shape.
pub fn write_error(
    stream: &mut TcpStream,
    status: u16,
    message: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let body = format!("gmark: {message}\n");
    write_response(
        stream,
        status,
        &[("Content-Type", "text/plain; charset=utf-8")],
        body.as_bytes(),
        keep_alive,
    )
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One response read back by [`fetch`].
#[derive(Debug)]
pub struct ClientResponse {
    /// The response status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The reassembled body (chunked responses are de-chunked).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server announced it will close the connection after
    /// this response — a [`Client`] holder must reconnect before the
    /// next request.
    pub fn close_after(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A minimal blocking HTTP/1.1 client for one request: what the
/// integration tests and the bench drivers use for one-shot requests (curl
/// fills the same role in CI). A [`Client`] on a fresh connection that
/// sends `Connection: close`.
pub fn fetch(
    addr: impl ToSocketAddrs,
    method: &str,
    path_and_query: &str,
    body: &[u8],
) -> io::Result<ClientResponse> {
    Client::connect(addr)?.send(method, path_and_query, body, true)
}

/// Parses a response head (status line + headers, without the blank
/// line) into `(status, lowercased headers)`.
fn parse_response_head(head: &[u8]) -> io::Result<(u16, Vec<(String, String)>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("response: {what}"));
    let head = std::str::from_utf8(head).map_err(|_| bad("head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    Ok((status, headers))
}

/// A reusable HTTP/1.1 client: one TCP connection, many requests.
///
/// The client frames each response exactly (by `Content-Length`, or chunk
/// by chunk) so the next request can ride the same socket — the client
/// half of the server's keep-alive fast path. The integration tests'
/// keep-alive pins and the `drive` / `serve_sweep` bench drivers use it;
/// [`fetch`] is the one-request form. After a response announcing
/// `Connection: close` ([`ClientResponse::close_after`]) the holder must
/// reconnect.
pub struct Client {
    stream: TcpStream,
    /// Socket bytes read but not yet consumed by response framing.
    buf: Vec<u8>,
}

impl Client {
    /// Connects with generous (120 s) read and write timeouts.
    /// `TCP_NODELAY` is set: a request/response protocol writing small
    /// frames on a reused connection would otherwise trip over Nagle +
    /// delayed-ACK stalls (~40 ms per request).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(120)))?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads exactly one framed response, leaving
    /// the connection ready for the next call (unless the response says
    /// otherwise).
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        self.send(method, path_and_query, body, false)
    }

    /// [`Client::request`], optionally announcing `Connection: close`.
    /// A server may answer before reading the whole request (a 429 from
    /// admission control does exactly that), so a write failure is only
    /// fatal if no response can be read afterwards.
    fn send(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &[u8],
        close: bool,
    ) -> io::Result<ClientResponse> {
        let head = format!(
            "{method} {path_and_query} HTTP/1.1\r\nHost: gmark\r\nContent-Length: {}\r\n{}\r\n",
            body.len(),
            if close { "Connection: close\r\n" } else { "" }
        );
        let wrote = self
            .stream
            .write_all(head.as_bytes())
            .and_then(|()| self.stream.write_all(body))
            .and_then(|()| self.stream.flush());
        self.read_response()
            .map_err(|read_err| wrote.err().unwrap_or(read_err))
    }

    /// Reads exactly one framed response.
    fn read_response(&mut self) -> io::Result<ClientResponse> {
        // Head: buffer until the blank line.
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            self.fill()?;
        };
        let head: Vec<u8> = self.buf.drain(..head_end + 4).collect();
        let (status, headers) = parse_response_head(&head[..head_end])?;

        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            let mut out = Vec::new();
            loop {
                let size_line = self.take_line()?;
                let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response: bad chunk size {size_line:?}"),
                    )
                })?;
                // Chunk payload plus its trailing CRLF (the zero chunk
                // has an empty payload, so this consumes the final one).
                let mut chunk = self.take(size + 2)?;
                if size == 0 {
                    break;
                }
                chunk.truncate(size);
                out.append(&mut chunk);
            }
            out
        } else {
            let length = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .and_then(|(_, v)| v.parse::<usize>().ok())
                .unwrap_or(0);
            self.take(length)?
        };
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }

    /// Reads more socket bytes into the buffer; EOF is an error here
    /// because framing said more bytes must come.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Consumes exactly `n` bytes off the front of the stream.
    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    /// Consumes one CRLF-terminated line (without the terminator).
    fn take_line(&mut self) -> io::Result<String> {
        let end = loop {
            if let Some(p) = self.buf.windows(2).position(|w| w == b"\r\n") {
                break p;
            }
            self.fill()?;
        };
        let line: Vec<u8> = self.buf.drain(..end + 2).collect();
        String::from_utf8(line[..end].to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response line not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_and_plus() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("no-escapes"), "no-escapes");
        assert_eq!(percent_decode("dangling%2"), "dangling%2");
        assert_eq!(percent_decode("%3Cxml%3E"), "<xml>");
    }

    /// A one-connection loopback server: reads one request per reply,
    /// answers it with the raw bytes, then closes. Returns the address and
    /// the `Connection` header of each request it read.
    fn serve_raw(
        replies: Vec<&'static [u8]>,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<Vec<Option<String>>>,
    ) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            for reply in replies {
                let request = read_request(&mut stream).unwrap();
                seen.push(request.header("connection").map(str::to_owned));
                stream.write_all(reply).unwrap();
            }
            seen
        });
        (addr, server)
    }

    #[test]
    fn dechunking_reassembles_the_payload() {
        let (addr, server) = serve_raw(vec![
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab\r\n",
        ]);
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.request("GET", "/", b"").unwrap().body, b"abcdefg");
        assert_eq!(client.request("GET", "/", b"").unwrap().body, b"");
        assert!(
            client.request("GET", "/", b"").is_err(),
            "truncated chunk, then EOF"
        );
        server.join().unwrap();
    }

    #[test]
    fn client_response_parser_reads_status_headers_and_body() {
        let (addr, server) = serve_raw(vec![
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi",
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
        ]);
        let mut client = Client::connect(addr).unwrap();
        let resp = client.request("GET", "/a", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Content-Type"), Some("text/plain"));
        assert_eq!(resp.body, b"hi");
        let resp = client.request("POST", "/b", b"body").unwrap();
        assert_eq!((resp.status, resp.body.len()), (404, 0));
        assert_eq!(server.join().unwrap(), vec![None, None]);

        // `fetch` is the same client on a fresh connection that asks the
        // server to close.
        let (addr, server) = serve_raw(vec![
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy",
        ]);
        let resp = fetch(addr, "GET", "/", b"").unwrap();
        assert_eq!((resp.status, resp.body.as_slice()), (429, &b"busy"[..]));
        assert!(resp.close_after());
        assert_eq!(server.join().unwrap(), vec![Some("close".to_owned())]);
    }
}
