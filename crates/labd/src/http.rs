//! Minimal HTTP/1.1 plumbing on `std::net` — the server half of the
//! hand-rolled protocol [`uasn_lab::client`] speaks.
//!
//! Deliberately tiny: one request per connection (the server always
//! answers `Connection: close`), request and header lines bounded by
//! [`MAX_LINE_BYTES`] and [`MAX_HEADERS`], bodies by [`MAX_BODY_BYTES`],
//! JSON in and JSON out, plus a [`ChunkedWriter`] for the one endpoint
//! that streams. No routing table, no keep-alive, no TLS — a lab service
//! on a loopback interface, not a web framework.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use uasn_sim::json::JsonValue;

/// Upper bound on request bodies; submissions are a few hundred bytes, so
/// anything near this is a client bug, not a big sweep.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on the request line and on each header line, terminator
/// included: a client that never sends a newline cannot grow the buffer.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Upper bound on the number of header lines in one request.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, percent-naive path, and raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … uppercased as received.
    pub method: String,
    /// The request target, query string stripped.
    pub path: String,
    /// The request body (empty when none was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The path split on `/`, empty segments removed — `/v1/jobs/j0001`
    /// becomes `["v1", "jobs", "j0001"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Option<JsonValue> {
        JsonValue::parse(&String::from_utf8_lossy(&self.body)).ok()
    }
}

/// Reads one request off the stream.
///
/// # Errors
///
/// `InvalidData` on malformed request lines, lines longer than
/// [`MAX_LINE_BYTES`], more than [`MAX_HEADERS`] headers, oversized bodies,
/// or non-numeric `Content-Length`; transport errors pass through.
pub fn read_request(stream: &mut BufReader<TcpStream>) -> io::Result<Request> {
    let line = read_line_bounded(stream)?;
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed request line {line:?}"),
        ));
    };
    let method = method.to_ascii_uppercase();
    let path = target.split('?').next().unwrap_or("").to_string();

    let mut content_length = 0usize;
    let mut headers = 0usize;
    loop {
        let header = read_line_bounded(stream)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("more than {MAX_HEADERS} header lines"),
            ));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad content-length {value:?}"),
                    )
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request body of {content_length} bytes exceeds {MAX_BODY_BYTES}"),
        ));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Reads one line of at most [`MAX_LINE_BYTES`], terminator included.
fn read_line_bounded(stream: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    stream
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(&mut line)?;
    if line.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request or header line longer than {MAX_LINE_BYTES} bytes"),
        ));
    }
    Ok(line)
}

/// The reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_json(stream: &mut TcpStream, status: u16, doc: &JsonValue) -> io::Result<()> {
    let body = doc.to_json();
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        status_text(status),
        body.len()
    )?;
    stream.flush()
}

/// Writes the structured error shape the client decodes:
/// `{"error":{"code":…,"message":…,…extra}}`.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_error(
    stream: &mut TcpStream,
    status: u16,
    code: &str,
    message: &str,
    extra: Vec<(String, JsonValue)>,
) -> io::Result<()> {
    let mut pairs = vec![
        ("code".to_string(), JsonValue::from_string(code)),
        ("message".to_string(), JsonValue::from_string(message)),
    ];
    pairs.extend(extra);
    write_json(
        stream,
        status,
        &JsonValue::Object(vec![("error".to_string(), JsonValue::Object(pairs))]),
    )
}

/// The streaming half: a chunked-transfer body writer. Construct with
/// [`ChunkedWriter::begin`] (which sends the response head), feed it
/// lines, then [`ChunkedWriter::finish`] to send the terminating chunk.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Sends a 200 head declaring chunked transfer and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn begin(stream: &'a mut TcpStream, content_type: &str) -> io::Result<ChunkedWriter<'a>> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends `data` as one chunk and flushes, so stream consumers see it
    /// immediately. Empty data is skipped (an empty chunk would terminate
    /// the body).
    ///
    /// # Errors
    ///
    /// Propagates transport errors — including the client hanging up,
    /// which the caller should treat as "stop streaming", not a failure.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Sends the terminating 0-chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Loops a raw request through a real socket pair and parses it.
    fn round_trip(raw: &[u8]) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(raw).expect("send");
        client.flush().expect("flush");
        let (server_side, _) = listener.accept().expect("accept");
        read_request(&mut BufReader::new(server_side))
    }

    #[test]
    fn parses_a_post_with_body() {
        let request = round_trip(
            b"POST /v1/jobs?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 15\r\n\r\n{\"figures\":[]}\n",
        )
        .expect("parse");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/jobs");
        assert_eq!(request.segments(), ["v1", "jobs"]);
        assert_eq!(request.body, b"{\"figures\":[]}\n");
        assert!(request.json().is_some());
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(round_trip(b"\r\n\r\n").is_err(), "empty request line");
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(round_trip(huge.as_bytes()).is_err(), "oversized body");
        assert!(
            round_trip(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err(),
            "non-numeric length"
        );
    }

    #[test]
    fn rejects_overlong_lines_and_header_floods() {
        let long = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_LINE_BYTES)
        );
        let err = round_trip(long.as_bytes()).expect_err("over-long header line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The 400 the server answers with must not echo the line back.
        assert!(err.to_string().len() < 100, "{err}");
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        let err = round_trip(long_target.as_bytes()).expect_err("over-long request line");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let flood = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-A: b\r\n".repeat(MAX_HEADERS + 1)
        );
        let err = round_trip(flood.as_bytes()).expect_err("too many headers");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // At the caps, a request still parses.
        let at_cap = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n{}\r\n",
            "a".repeat(MAX_LINE_BYTES - "X-Pad: \r\n".len()),
            "X-A: b\r\n".repeat(MAX_HEADERS - 1)
        );
        assert_eq!(
            round_trip(at_cap.as_bytes()).expect("at the caps").path,
            "/"
        );
    }

    #[test]
    fn status_texts_cover_the_emitted_codes() {
        for code in [200, 400, 404, 405, 409, 429, 500, 503] {
            assert_ne!(status_text(code), "Unknown", "{code}");
        }
    }
}
