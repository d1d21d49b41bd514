//! Adversarial integration tests for the TCP ingress: real sockets
//! against a live fleet. The contract under test is the module doc of
//! `gem_service::ingress` — admitted records always produce exactly one
//! DECISION, protocol violations (torn frames, bad checksums, oversized
//! lengths, silence, server-only frames) reject *that connection only*,
//! and the listener plus every other connection keep serving.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use gem_core::{Gem, GemConfig, GemSnapshot};
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::wire::{self, Frame, WireShedReason, WireVerdict, MAX_FRAME_LEN};
use gem_service::{Fleet, FleetConfig, IngressConfig, IngressServer, Monitor, MonitorConfig};
use gem_signal::SignalRecord;

/// One trained model (as restorable JSON) plus held-out records,
/// fitted once for the whole test binary.
struct Fixture {
    snapshot_json: String,
    stream: Vec<SignalRecord>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = ScenarioConfig::user(1);
        cfg.train_duration_s = 60.0;
        cfg.n_test_in = 6;
        cfg.n_test_out = 6;
        let ds = Scenario::build(cfg).generate();
        let gem = Gem::fit(GemConfig::default(), &ds.train);
        Fixture {
            snapshot_json: GemSnapshot::capture(&gem).to_json().unwrap(),
            stream: ds.test.iter().map(|t| t.record.clone()).collect(),
        }
    })
}

/// A fleet with the given premises ids behind a freshly bound ingress.
fn serve(premises: &[u64], icfg: IngressConfig) -> (Fleet, IngressServer) {
    let fx = fixture();
    let monitors: Vec<(u64, Monitor)> = premises
        .iter()
        .map(|&p| {
            let gem = GemSnapshot::from_json(&fx.snapshot_json).unwrap().restore().unwrap();
            (p, Monitor::new(gem, MonitorConfig::default()))
        })
        .collect();
    let mut fleet = Fleet::spawn(
        monitors,
        FleetConfig { shards: 2, queue_per_shard: 64, ..FleetConfig::default() },
    )
    .unwrap();
    let server = IngressServer::bind("127.0.0.1:0", &mut fleet, icfg).unwrap();
    (fleet, server)
}

/// A test client: HELLO already consumed, frame-level send/recv with a
/// read timeout so a wedged server fails the test instead of hanging it.
struct Client {
    writer: TcpStream,
    reader: std::io::BufReader<TcpStream>,
    buf: Vec<u8>,
    wbuf: Vec<u8>,
    credits: u16,
    /// Frames read past while waiting for a specific kind. The ACK
    /// (connection thread) and the DECISION (router thread) race to the
    /// socket, so a DECISION may legitimately arrive before its ACK —
    /// `recv_until` must keep it for the next caller, not discard it.
    stash: std::collections::VecDeque<Frame>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let writer = sock.try_clone().unwrap();
        let mut client = Client {
            writer,
            reader: std::io::BufReader::new(sock),
            buf: Vec::new(),
            wbuf: Vec::new(),
            credits: 0,
            stash: std::collections::VecDeque::new(),
        };
        match client.recv() {
            Ok(Some(Frame::Hello { version, credits })) => {
                assert_eq!(version, wire::WIRE_VERSION);
                assert!(credits >= 1, "advertised window must be at least 1");
                client.credits = credits;
            }
            other => panic!("expected HELLO, got {other:?}"),
        }
        client
    }

    fn send(&mut self, frame: &Frame) -> std::io::Result<usize> {
        wire::write_frame(&mut self.writer, frame, &mut self.wbuf)
    }

    fn send_record(&mut self, premises_id: u64, record: SignalRecord) -> std::io::Result<usize> {
        self.send(&Frame::Record { premises_id, record, trace: None })
    }

    fn recv(&mut self) -> Result<Option<Frame>, wire::WireError> {
        wire::read_frame(&mut self.reader, MAX_FRAME_LEN, &mut self.buf)
    }

    /// Reads until a frame matching `want` arrives (checking stashed
    /// frames first); panics on EOF. Non-matching frames are stashed
    /// for later `recv_until` calls — the server's two writer threads
    /// give no cross-kind ordering guarantee.
    fn recv_until(&mut self, want: impl Fn(&Frame) -> bool) -> Frame {
        if let Some(i) = self.stash.iter().position(&want) {
            return self.stash.remove(i).unwrap();
        }
        loop {
            match self.recv() {
                Ok(Some(frame)) if want(&frame) => return frame,
                Ok(Some(frame)) => self.stash.push_back(frame),
                other => panic!("connection ended while waiting: {other:?}"),
            }
        }
    }

    /// True once the server has dropped this connection: the next reads
    /// yield EOF or an error instead of frames.
    fn is_closed(&mut self) -> bool {
        matches!(self.recv(), Ok(None) | Err(_))
    }
}

fn record(i: usize) -> SignalRecord {
    let fx = fixture();
    fx.stream[i % fx.stream.len()].clone()
}

/// A counter's value in the registry's Prometheus rendering, summed
/// over label sets containing `needle`.
fn counter_sum(fleet: &Fleet, name: &str, needle: &str) -> f64 {
    fleet
        .registry()
        .render_prometheus()
        .lines()
        .filter(|l| l.starts_with(name) && l.contains(needle))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

#[test]
fn admitted_records_round_trip_to_decisions() {
    let (fleet, server) = serve(&[1, 2], IngressConfig::default());
    let mut a = Client::connect(server.local_addr());
    let mut b = Client::connect(server.local_addr());

    for i in 0..5 {
        a.send_record(1, record(i)).unwrap();
        b.send_record(2, record(i + 1)).unwrap();
        // Admission verdict comes back as an ACK, never a shed (the
        // window is never exceeded here).
        for c in [&mut a, &mut b] {
            let ack = c.recv_until(|f| matches!(f, Frame::Ack { .. }));
            let Frame::Ack { verdict, .. } = ack else { unreachable!() };
            assert!(
                matches!(verdict, WireVerdict::Accept | WireVerdict::Queued { .. }),
                "in-window record must be admitted, got {verdict:?}"
            );
        }
        // Exactly one DECISION per admitted record, tagged with the
        // right premises.
        let d = a.recv_until(|f| matches!(f, Frame::Decision { .. }));
        assert!(matches!(d, Frame::Decision { premises_id: 1, .. }), "got {d:?}");
        let d = b.recv_until(|f| matches!(f, Frame::Decision { .. }));
        assert!(matches!(d, Frame::Decision { premises_id: 2, .. }), "got {d:?}");
    }

    assert_eq!(counter_sum(&fleet, "gem_ingress_frames_total", "record"), 10.0);
    assert_eq!(
        counter_sum(&fleet, "gem_ingress_records_total", "accept")
            + counter_sum(&fleet, "gem_ingress_records_total", "queued"),
        10.0
    );
    drop(server);
    fleet.shutdown().unwrap();
}

#[test]
fn unknown_premises_shed_is_echoed_on_the_wire() {
    let (fleet, server) = serve(&[1], IngressConfig::default());
    let mut c = Client::connect(server.local_addr());
    c.send_record(999, record(0)).unwrap();
    let ack = c.recv_until(|f| matches!(f, Frame::Ack { .. }));
    assert!(
        matches!(
            ack,
            Frame::Ack {
                premises_id: 999,
                verdict: WireVerdict::Shed(WireShedReason::UnknownPremises)
            }
        ),
        "got {ack:?}"
    );
    // The connection itself stays healthy: a known premises still works.
    c.send_record(1, record(0)).unwrap();
    c.recv_until(|f| matches!(f, Frame::Decision { premises_id: 1, .. }));
    drop(server);
    fleet.shutdown().unwrap();
}

#[test]
fn torn_frame_kills_the_connection_not_the_listener() {
    let (fleet, server) = serve(&[1], IngressConfig::default());

    // A client that dies mid-header.
    let mut encoded = Vec::new();
    wire::encode(&Frame::Record { premises_id: 1, record: record(0), trace: None }, &mut encoded);
    {
        let mut torn = Client::connect(server.local_addr());
        torn.writer.write_all(&encoded[..7]).unwrap();
        drop(torn); // half a header, then FIN
    }

    // The listener survives and fresh connections stream normally.
    let mut healthy = Client::connect(server.local_addr());
    healthy.send_record(1, record(1)).unwrap();
    healthy.recv_until(|f| matches!(f, Frame::Decision { premises_id: 1, .. }));

    // The tear was counted against the dead connection only. (Poll: the
    // reject is recorded by the reader thread after the FIN arrives.)
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while counter_sum(&fleet, "gem_ingress_rejects_total", "torn_frame") < 1.0 {
        assert!(std::time::Instant::now() < deadline, "torn_frame reject never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(server);
    fleet.shutdown().unwrap();
}

#[test]
fn bad_checksum_rejects_sender_and_spares_other_connections() {
    let (fleet, server) = serve(&[1, 2], IngressConfig::default());

    // An honest client mid-conversation...
    let mut honest = Client::connect(server.local_addr());
    honest.send_record(1, record(0)).unwrap();
    honest.recv_until(|f| matches!(f, Frame::Decision { premises_id: 1, .. }));

    // ...and a corrupt one: valid header, payload bits flipped.
    let mut corrupt = Client::connect(server.local_addr());
    let mut encoded = Vec::new();
    wire::encode(&Frame::Record { premises_id: 2, record: record(1), trace: None }, &mut encoded);
    let last = encoded.len() - 1;
    encoded[last] ^= 0x40;
    corrupt.writer.write_all(&encoded).unwrap();
    assert!(corrupt.is_closed(), "corrupt connection must be dropped");

    // The honest connection never noticed.
    honest.send_record(1, record(2)).unwrap();
    honest.recv_until(|f| matches!(f, Frame::Decision { premises_id: 1, .. }));
    assert_eq!(counter_sum(&fleet, "gem_ingress_rejects_total", "bad_checksum"), 1.0);
    drop(server);
    fleet.shutdown().unwrap();
}

#[test]
fn oversized_declared_length_is_rejected_without_buffering() {
    let (fleet, server) = serve(&[1], IngressConfig::default());
    let mut c = Client::connect(server.local_addr());
    // A header declaring a payload far beyond the ceiling; no payload
    // ever follows — the server must reject on the declaration alone.
    let mut header = Vec::new();
    header.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    header.extend_from_slice(&0u64.to_le_bytes());
    c.writer.write_all(&header).unwrap();
    assert!(c.is_closed(), "oversized declaration must drop the connection");
    assert_eq!(counter_sum(&fleet, "gem_ingress_rejects_total", "oversize"), 1.0);
    drop(server);
    fleet.shutdown().unwrap();
}

#[test]
fn silent_client_is_disconnected_on_read_timeout() {
    let icfg = IngressConfig { read_timeout: Duration::from_millis(150), ..Default::default() };
    let (fleet, server) = serve(&[1], icfg);
    let mut c = Client::connect(server.local_addr());
    // Say nothing; the server must hang up on its own.
    assert!(c.is_closed(), "silent connection must be dropped");
    assert_eq!(counter_sum(&fleet, "gem_ingress_rejects_total", "timeout"), 1.0);
    drop(server);
    fleet.shutdown().unwrap();
}

#[test]
fn server_only_frames_from_clients_are_protocol_violations() {
    let (fleet, server) = serve(&[1], IngressConfig::default());
    let mut c = Client::connect(server.local_addr());
    c.send(&Frame::Hello { version: wire::WIRE_VERSION, credits: 1 }).unwrap();
    assert!(c.is_closed(), "clients may only send RECORD frames");
    assert_eq!(counter_sum(&fleet, "gem_ingress_rejects_total", "bad_frame"), 1.0);
    drop(server);
    fleet.shutdown().unwrap();
}

#[test]
fn premises_is_single_owner_with_busy_shed_until_release() {
    let (fleet, server) = serve(&[1], IngressConfig::default());

    // First connection claims premises 1.
    let mut owner = Client::connect(server.local_addr());
    owner.send_record(1, record(0)).unwrap();
    owner.recv_until(|f| matches!(f, Frame::Decision { premises_id: 1, .. }));

    // A second connection gets Busy, not a decision.
    let mut rival = Client::connect(server.local_addr());
    rival.send_record(1, record(1)).unwrap();
    let ack = rival.recv_until(|f| matches!(f, Frame::Ack { .. }));
    assert!(
        matches!(
            ack,
            Frame::Ack { premises_id: 1, verdict: WireVerdict::Shed(WireShedReason::Busy) }
        ),
        "got {ack:?}"
    );

    // Once the owner leaves, the premises is claimable again. The
    // release happens as the owner's reader exits, so retry briefly.
    drop(owner);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        rival.send_record(1, record(2)).unwrap();
        let ack = rival.recv_until(|f| matches!(f, Frame::Ack { .. }));
        let Frame::Ack { verdict, .. } = ack else { unreachable!() };
        match verdict {
            WireVerdict::Shed(WireShedReason::Busy) => {
                assert!(std::time::Instant::now() < deadline, "premises never released");
                std::thread::sleep(Duration::from_millis(20));
            }
            WireVerdict::Accept | WireVerdict::Queued { .. } => break,
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    rival.recv_until(|f| matches!(f, Frame::Decision { premises_id: 1, .. }));
    drop(server);
    fleet.shutdown().unwrap();
}

/// Streams `records` for `premises_id` keeping up to the advertised
/// credit window unresolved, and returns each DECISION's label and
/// score in arrival order (per-premises FIFO).
fn stream_windowed(
    client: &mut Client,
    premises_id: u64,
    records: &[SignalRecord],
) -> Vec<(bool, u64)> {
    let window = client.credits as usize;
    let mut decided = Vec::with_capacity(records.len());
    let mut sent = 0usize;
    while decided.len() < records.len() {
        while sent < records.len() && sent - decided.len() < window {
            client.send_record(premises_id, records[sent].clone()).unwrap();
            sent += 1;
        }
        match client.recv_until(|f| matches!(f, Frame::Decision { .. })) {
            Frame::Decision { premises_id: p, inside, score, .. } => {
                assert_eq!(p, premises_id);
                decided.push((inside, score.to_bits()));
            }
            _ => unreachable!(),
        }
    }
    decided
}

/// Load independence end to end: two premises stream unpaused through
/// the ingress with a credit window above 1, against shards that group
/// backlogs into epochs of up to the default `max_batch`. Every
/// decision must equal a per-premises `Gem::infer` replay of the same
/// stream, label and score bitwise, however the queue grouped it.
#[test]
fn windowed_streams_decide_like_a_sequential_replay() {
    assert!(FleetConfig::default().max_batch > 1);
    let fx = fixture();
    let (fleet, server) = serve(&[1, 2], IngressConfig::default());
    let streams: Vec<Vec<SignalRecord>> = [0usize, 5]
        .iter()
        .map(|&offset| (0..3 * fx.stream.len()).map(|i| record(i + offset)).collect())
        .collect();
    let got: Vec<Vec<(bool, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, records)| {
                let addr = server.local_addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    assert!(client.credits > 1, "the window must allow a backlog");
                    stream_windowed(&mut client, i as u64 + 1, records)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    drop(server);
    fleet.shutdown().unwrap();

    for (i, records) in streams.iter().enumerate() {
        let mut gem = GemSnapshot::from_json(&fx.snapshot_json).unwrap().restore().unwrap();
        let want: Vec<(bool, u64)> = records
            .iter()
            .map(|r| {
                let d = gem.infer(r);
                (d.label == gem_signal::Label::In, d.score.to_bits())
            })
            .collect();
        assert_eq!(got[i], want, "premises {} diverged from its sequential replay", i + 1);
    }
}
