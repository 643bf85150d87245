//! A deliberately small HTTP/1.1 layer for `julie serve`: blocking reads,
//! `Content-Length` bodies, chunked responses for the streaming wait
//! endpoint. No keep-alive — every request gets `Connection: close`, which
//! keeps the connection lifecycle identical to the job-cancellation story
//! (a dropped socket is a dropped client).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use crate::json::Json;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body — nets are text, 16 MiB is generous.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// Body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Reads and parses one request from the stream. Returns `Ok(None)` on a
/// clean EOF before any bytes (client connected and went away).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    let mut line = String::new();
    // request line + headers, CRLF-terminated, bounded
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return if head.is_empty() {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ))
            };
        }
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    if method.is_empty() || target.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut content_length = 0usize;
    for h in lines {
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { method, path, body }))
}

/// The standard reason phrase for the handful of statuses serve uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete JSON response (with optional extra headers, e.g.
/// `Retry-After`) and flushes.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &Json,
) -> io::Result<()> {
    respond(
        stream,
        status,
        "application/json",
        extra_headers,
        &body.render(),
    )
}

/// Writes a complete response of `content_type` and flushes.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    payload: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        payload.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// A chunked-transfer response writer for the streaming wait endpoint:
/// each [`ChunkedWriter::send`] is one chunk (a JSON line); the client
/// sees status updates as they happen. A write error means the client
/// disconnected — the caller turns that into a job cancellation.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Sends the response head and returns the writer.
    pub fn start(stream: &'a mut TcpStream, status: u16) -> io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Sends one line of payload as a chunk.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let data = format!("{line}\n");
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}
