//! A small blocking client for the wire protocol.
//!
//! One connection, strict request/reply by default, with an explicit
//! pipelining split ([`Client::send`] / [`Client::recv`]) for the load
//! generator: replies come back in request order, so a pipelined
//! caller pairs them positionally.

use crate::protocol::{
    write_frame, FramePoll, FrameReadError, FrameReader, Request, Response, WireError,
    MAX_FRAME_BYTES,
};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing died.
    Io(io::Error),
    /// The server's bytes violated framing.
    Frame(String),
    /// A well-framed payload was not a valid response.
    Wire(WireError),
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Frame(e) => write!(f, "framing: {e}"),
            ClientError::Wire(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

enum Transport {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl io::Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.read(buf),
            Transport::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Tcp(s) => s.write(buf),
            Transport::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Tcp(s) => s.flush(),
            Transport::Uds(s) => s.flush(),
        }
    }
}

/// One connection to a server.
pub struct Client {
    transport: Transport,
    reader: FrameReader,
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Ok(Client {
            transport: Transport::Tcp(s),
            reader: FrameReader::new(MAX_FRAME_BYTES),
        })
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_uds(path: impl AsRef<Path>) -> io::Result<Client> {
        Ok(Client {
            transport: Transport::Uds(UnixStream::connect(path)?),
            reader: FrameReader::new(MAX_FRAME_BYTES),
        })
    }

    /// Write one request without waiting for its reply (pipelining).
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.transport, &req.encode())?;
        self.transport.flush()?;
        Ok(())
    }

    /// Write raw bytes straight to the transport, bypassing request
    /// encoding. For tests that need to send damaged frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.transport.write_all(bytes)?;
        self.transport.flush()?;
        Ok(())
    }

    /// Read the next reply (in request order).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match self.reader.poll(&mut self.transport) {
            Ok(FramePoll::Frame(payload)) => Ok(Response::decode(&payload)?),
            Ok(FramePoll::Eof) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Err(FrameReadError::Frame(e)) => Err(ClientError::Frame(e.to_string())),
            Err(FrameReadError::Io(e)) => Err(ClientError::Io(e)),
        }
    }

    /// Strict request/reply round trip.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }
}
