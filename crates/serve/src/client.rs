//! A minimal blocking client for the line-oriented protocol: one JSON
//! object out, one JSON object back, over a plain `TcpStream`.

use mjoin_trace::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to a running [`crate::Server`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send one request object and read its response object.
    pub fn request(&mut self, req: &Value) -> std::io::Result<Value> {
        self.request_line(&req.render())
    }

    /// Send one raw request line and parse the response.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<Value> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(bad_data("server closed the connection".to_string()));
        }
        Value::parse(resp.trim_end()).map_err(|e| bad_data(format!("bad response: {e}")))
    }

    /// Convenience: build and send a `{"cmd": …}` request from key/value
    /// pairs.
    pub fn cmd(&mut self, cmd: &str, fields: &[(&str, Value)]) -> std::io::Result<Value> {
        let mut req = Value::obj().set("cmd", Value::str(cmd));
        for (k, v) in fields {
            req = req.set(k, v.clone());
        }
        self.request(&req)
    }
}
