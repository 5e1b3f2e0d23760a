//! A minimal HTTP/1.1 keep-alive client: one connection at a time,
//! reconnecting when the server answers `Connection: close`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Sends one request and reads the whole reply. An I/O error drops the
    /// connection; the request is not retried, since an ingest must not be
    /// applied twice.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("set_nodelay: {e}"))?;
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        match exchange(conn, method, path, body) {
            Ok((reply, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.conn = None;
                Err(format!("{method} {path}: {e}"))
            }
        }
    }
}

/// Writes the request in one piece and reads a content-length framed
/// reply. Returns the reply and whether the connection stays open.
fn exchange(
    conn: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(Reply, bool)> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut req = Vec::with_capacity(96 + body.len());
    write!(
        req,
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )?;
    req.extend_from_slice(body);
    conn.get_mut().write_all(&req)?;

    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before the reply".into()));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut len = None;
    let mut keep_alive = true;
    loop {
        line.clear();
        conn.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("bad header {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            len = Some(
                value
                    .parse::<usize>()
                    .map_err(|e| bad(format!("content-length: {e}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.to_ascii_lowercase().contains("close");
        }
    }
    let len = len.ok_or_else(|| bad("reply without content-length".into()))?;
    let mut body = vec![0; len];
    conn.read_exact(&mut body)?;
    Ok((Reply { status, body }, keep_alive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dod_server::DodServer;

    #[test]
    fn reconnects_when_the_server_closes_the_connection() {
        let server = DodServer::builder()
            .workers(1)
            .keep_alive_requests(2)
            .bind("127.0.0.1:0")
            .unwrap()
            .start();
        let mut client = Client::new(server.addr());
        for _ in 0..5 {
            let reply = client.request("GET", "/healthz", b"").unwrap();
            assert_eq!(reply.status, 200);
            assert!(String::from_utf8(reply.body).unwrap().contains("ok"));
        }
        // Requests 1-2, 3-4 and 5 each ride their own connection.
        assert_eq!(client.reconnects(), 2);
        server.shutdown();
    }

    #[test]
    fn a_dead_server_is_an_error_not_a_hang() {
        let server = DodServer::builder()
            .workers(1)
            .bind("127.0.0.1:0")
            .unwrap()
            .start();
        let addr = server.addr();
        server.shutdown();
        assert!(Client::new(addr).request("GET", "/healthz", b"").is_err());
    }
}
