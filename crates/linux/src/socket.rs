//! Minimal sockets for simulated userspace daemons.
//!
//! The processes that run *on* the simulated kernel — the IKE-lite
//! daemon (strongSwan's stand-in), iperf-like generators, the DHCP NNF —
//! need to send and receive datagrams. This is a deliberately small
//! socket layer: UDP with bind/send/recv plus an ICMP-echo observer.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

use crate::types::NsId;

/// A socket handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketId(pub u32);

/// A received datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sender address.
    pub src: Ipv4Addr,
    /// Sender port.
    pub sport: u16,
    /// Destination address the packet carried.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dport: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

#[derive(Debug)]
pub(crate) struct UdpSocket {
    pub ns: NsId,
    /// Bound local address (UNSPECIFIED = any).
    pub addr: Ipv4Addr,
    /// Bound local port.
    pub port: u16,
    pub rx: VecDeque<Datagram>,
    /// Packets dropped because the queue was full.
    pub overflows: u64,
}

/// Receive queue bound (packets), like a small SO_RCVBUF.
pub const RECV_QUEUE_MAX: usize = 4096;

/// Per-host socket table.
#[derive(Debug, Default)]
pub struct SocketTable {
    sockets: Vec<UdpSocket>,
    /// (ns, port) → socket index. Binds are per-namespace.
    bound: HashMap<(NsId, u16), usize>,
}

impl SocketTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a UDP socket in a namespace.
    #[allow(clippy::result_unit_err)]
    pub fn bind(&mut self, ns: NsId, addr: Ipv4Addr, port: u16) -> Result<SocketId, ()> {
        if self.bound.contains_key(&(ns, port)) {
            return Err(());
        }
        let idx = self.sockets.len();
        self.sockets.push(UdpSocket {
            ns,
            addr,
            port,
            rx: VecDeque::new(),
            overflows: 0,
        });
        self.bound.insert((ns, port), idx);
        Ok(SocketId(idx as u32))
    }

    /// Close a socket (its port becomes free).
    pub fn close(&mut self, id: SocketId) {
        if let Some(s) = self.sockets.get(id.0 as usize) {
            self.bound.remove(&(s.ns, s.port));
        }
    }

    /// Close every socket bound in `ns` and drop their queued
    /// datagrams (the namespace is going away).
    pub fn close_namespace(&mut self, ns: NsId) {
        self.bound.retain(|&(bound_ns, _), _| bound_ns != ns);
        for s in self.sockets.iter_mut().filter(|s| s.ns == ns) {
            s.rx = VecDeque::new();
        }
    }

    /// Look up the socket that should receive a datagram.
    pub fn demux(&self, ns: NsId, dst: Ipv4Addr, dport: u16) -> Option<SocketId> {
        self.bound.get(&(ns, dport)).and_then(|&idx| {
            let s = &self.sockets[idx];
            if s.addr == Ipv4Addr::UNSPECIFIED || s.addr == dst {
                Some(SocketId(idx as u32))
            } else {
                None
            }
        })
    }

    /// Queue a datagram for a socket.
    pub fn deliver(&mut self, id: SocketId, dgram: Datagram) {
        let s = &mut self.sockets[id.0 as usize];
        if s.rx.len() >= RECV_QUEUE_MAX {
            s.overflows += 1;
            return;
        }
        s.rx.push_back(dgram);
    }

    /// Pop the next datagram, if any.
    pub fn recv(&mut self, id: SocketId) -> Option<Datagram> {
        self.sockets.get_mut(id.0 as usize)?.rx.pop_front()
    }

    /// Pending datagrams on a socket.
    pub fn pending(&self, id: SocketId) -> usize {
        self.sockets
            .get(id.0 as usize)
            .map(|s| s.rx.len())
            .unwrap_or(0)
    }

    /// Drops due to a full receive queue.
    pub fn overflows(&self, id: SocketId) -> u64 {
        self.sockets
            .get(id.0 as usize)
            .map(|s| s.overflows)
            .unwrap_or(0)
    }

    /// Socket metadata: (ns, bound addr, port).
    pub fn info(&self, id: SocketId) -> Option<(NsId, Ipv4Addr, u16)> {
        self.sockets
            .get(id.0 as usize)
            .map(|s| (s.ns, s.addr, s.port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dgram(payload: &[u8]) -> Datagram {
        Datagram {
            src: Ipv4Addr::new(1, 1, 1, 1),
            sport: 1000,
            dst: Ipv4Addr::new(2, 2, 2, 2),
            dport: 2000,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn bind_demux_recv() {
        let mut t = SocketTable::new();
        let s = t.bind(NsId(0), Ipv4Addr::UNSPECIFIED, 2000).unwrap();
        assert_eq!(t.demux(NsId(0), Ipv4Addr::new(2, 2, 2, 2), 2000), Some(s));
        assert_eq!(t.demux(NsId(0), Ipv4Addr::new(2, 2, 2, 2), 2001), None);
        assert_eq!(t.demux(NsId(1), Ipv4Addr::new(2, 2, 2, 2), 2000), None);
        t.deliver(s, dgram(b"hello"));
        assert_eq!(t.pending(s), 1);
        assert_eq!(t.recv(s).unwrap().payload, b"hello");
        assert_eq!(t.recv(s), None);
    }

    #[test]
    fn bound_addr_filters() {
        let mut t = SocketTable::new();
        let s = t.bind(NsId(0), Ipv4Addr::new(10, 0, 0, 1), 53).unwrap();
        assert_eq!(t.demux(NsId(0), Ipv4Addr::new(10, 0, 0, 1), 53), Some(s));
        assert_eq!(t.demux(NsId(0), Ipv4Addr::new(10, 0, 0, 2), 53), None);
    }

    #[test]
    fn double_bind_rejected_and_close_frees() {
        let mut t = SocketTable::new();
        let s = t.bind(NsId(0), Ipv4Addr::UNSPECIFIED, 500).unwrap();
        assert!(t.bind(NsId(0), Ipv4Addr::UNSPECIFIED, 500).is_err());
        // Same port in another namespace is fine.
        assert!(t.bind(NsId(1), Ipv4Addr::UNSPECIFIED, 500).is_ok());
        t.close(s);
        assert!(t.bind(NsId(0), Ipv4Addr::UNSPECIFIED, 500).is_ok());
    }

    #[test]
    fn queue_overflow_counted() {
        let mut t = SocketTable::new();
        let s = t.bind(NsId(0), Ipv4Addr::UNSPECIFIED, 9).unwrap();
        for _ in 0..RECV_QUEUE_MAX + 5 {
            t.deliver(s, dgram(b"x"));
        }
        assert_eq!(t.pending(s), RECV_QUEUE_MAX);
        assert_eq!(t.overflows(s), 5);
    }
}
