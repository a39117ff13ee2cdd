//! Loopback integration tests for the TCP ingress: the protocol flows,
//! the failure-handling contract, and the overload/exactly-once
//! acceptance criteria, all against a real socket.

use mbta_net::{
    send_events, Client, ClientError, NetConfig, NetIngress, Reply, Request, Role, ShardReportInfo,
    StatusInfo, StatusServer,
};
use mbta_service::{Arrival, DeferBackoff, ServiceEvent};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn ev(id: u32) -> Arrival {
    Arrival {
        time: id as f64,
        event: ServiceEvent::TaskPost(id),
    }
}

fn test_cfg(queue_cap: usize) -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_cap,
        read_timeout: Duration::from_secs(5),
        retry_base_ms: 1,
        retry_cap_ms: 16,
        seed: 42,
    }
}

fn connect(server: &NetIngress) -> Client {
    Client::connect(&server.local_addr().to_string(), Duration::from_secs(5)).unwrap()
}

#[test]
fn batch_flows_through_in_order_and_fin_drains() {
    let server = NetIngress::bind(test_cfg(64)).unwrap();
    let mut client = connect(&server);
    let events: Vec<Arrival> = (0..10).map(ev).collect();
    let reply = client
        .request(&Request::EventBatch {
            ns: 3,
            events: events.clone(),
        })
        .unwrap();
    assert_eq!(reply, Reply::Ok { accepted: 10 });
    assert!(!server.fin_received());
    let got: Vec<(u32, Arrival)> = (0..10)
        .map(|_| server.pop_wait(Duration::from_secs(2)).unwrap())
        .collect();
    // The namespace tag rides along with every queued arrival.
    assert!(got.iter().all(|(ns, _)| *ns == 3));
    let drained: Vec<Arrival> = got.into_iter().map(|(_, a)| a).collect();
    assert_eq!(drained, events);
    assert_eq!(
        client.request(&Request::Fin).unwrap(),
        Reply::Ok { accepted: 0 }
    );
    // Fin is sticky and, with the queue empty, the stream is over.
    for _ in 0..100 {
        if server.is_drained() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.is_drained());
    let stats = server.stats();
    assert_eq!(stats.accepted, 10);
    assert!(stats.frames >= 2);
    assert!(stats.bytes_in > 0);
}

#[test]
fn malformed_payload_gets_error_reply_and_connection_survives() {
    let server = NetIngress::bind(test_cfg(64)).unwrap();
    let mut client = connect(&server);
    // A perfectly framed message whose payload is garbage: the server
    // must reply ERR (payload class) and keep the connection usable.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Vec::new();
    mbta_net::write_message(&mut frame, &[0x7f, 1, 2, 3]).unwrap();
    raw.write_all(&frame).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = mbta_net::read_message(&mut raw).unwrap();
    match mbta_net::decode_reply(&payload).unwrap() {
        Reply::Err { code, .. } => assert_eq!(code.as_u8(), 1, "payload error class"),
        other => panic!("expected ERR, got {other:?}"),
    }
    // Same raw connection still admits a well-formed batch afterwards.
    let mut frame = Vec::new();
    mbta_net::write_message(
        &mut frame,
        &mbta_net::encode_request(&Request::EventBatch {
            ns: 0,
            events: vec![ev(1)],
        }),
    )
    .unwrap();
    raw.write_all(&frame).unwrap();
    let payload = mbta_net::read_message(&mut raw).unwrap();
    assert_eq!(
        mbta_net::decode_reply(&payload).unwrap(),
        Reply::Ok { accepted: 1 }
    );
    // And the unrelated client connection was never disturbed.
    assert_eq!(
        client
            .request(&Request::EventBatch {
                ns: 0,
                events: vec![ev(2)],
            })
            .unwrap(),
        Reply::Ok { accepted: 1 }
    );
    assert!(server.stats().malformed >= 1);
}

#[test]
fn damaged_frame_gets_error_reply_then_close() {
    let server = NetIngress::bind(test_cfg(64)).unwrap();
    let follower = StatusInfo {
        role: Role::Follower,
        watermark: 0,
        assignments: 0,
        total_weight: 0.0,
    };
    let status = StatusServer::bind("127.0.0.1:0", follower).unwrap();
    // One server loop, two roles: the read-only endpoint answers a
    // damaged frame exactly as the ingress does.
    for addr in [server.local_addr(), status.local_addr()] {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Corrupt the CRC of an otherwise valid frame: resync is
        // impossible, so the server says why and closes.
        let mut frame = Vec::new();
        mbta_net::write_message(
            &mut frame,
            &mbta_net::encode_request(&Request::EventBatch {
                ns: 0,
                events: vec![ev(1)],
            }),
        )
        .unwrap();
        frame[5] ^= 0xff; // CRC byte
        raw.write_all(&frame).unwrap();
        let payload = mbta_net::read_message(&mut raw).unwrap();
        match mbta_net::decode_reply(&payload).unwrap() {
            Reply::Err { code, .. } => assert_eq!(code.as_u8(), 2, "frame error class"),
            other => panic!("expected ERR, got {other:?}"),
        }
        // The connection is gone: the next read sees EOF (or a reset).
        assert!(mbta_net::read_message(&mut raw).is_err());
    }
    // Nothing was admitted.
    assert_eq!(server.stats().accepted, 0);
}

#[test]
fn saturated_queue_bounces_with_retry_after_and_never_stalls_accepts() {
    let server = NetIngress::bind(test_cfg(8)).unwrap();
    let mut client = connect(&server);
    // Fill the queue exactly; nothing drains it.
    let fill: Vec<Arrival> = (0..8).map(ev).collect();
    assert_eq!(
        client
            .request(&Request::EventBatch {
                ns: 0,
                events: fill,
            })
            .unwrap(),
        Reply::Ok { accepted: 8 }
    );
    // The next batch bounces atomically: RETRY_AFTER, nothing admitted.
    let bounced = client
        .request(&Request::EventBatch {
            ns: 0,
            events: vec![ev(100), ev(101)],
        })
        .unwrap();
    match bounced {
        Reply::RetryAfter { hint_ms } => assert!(hint_ms >= 1),
        other => panic!("expected RETRY_AFTER, got {other:?}"),
    }
    // An over-capacity batch can never fit: a typed rejection, not a wait.
    let too_large: Vec<Arrival> = (0..9).map(ev).collect();
    match client
        .request(&Request::EventBatch {
            ns: 0,
            events: too_large,
        })
        .unwrap()
    {
        Reply::Err { code, .. } => assert_eq!(code.as_u8(), 3),
        other => panic!("expected TOO_LARGE, got {other:?}"),
    }
    // While saturated, brand-new connections are still accepted and
    // served — admission control sheds load, it does not stall accept.
    let mut probe = connect(&server);
    match probe.request(&Request::QueryStatus).unwrap() {
        Reply::Status(s) => assert_eq!(s.role, Role::Primary),
        other => panic!("expected STATUS, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.accepted, 8, "bounced batches admitted nothing");
    assert!(stats.retry_after >= 1);
    assert!(stats.conns >= 2);
}

#[test]
fn backoff_retry_delivers_every_accepted_event_exactly_once() {
    let server = NetIngress::bind(test_cfg(8)).unwrap();
    let events: Vec<Arrival> = (0..200).map(ev).collect();
    // A deliberately slow consumer so the producer outruns the drain and
    // gets bounced repeatedly.
    let (tx, rx) = std::sync::mpsc::channel::<Arrival>();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut got = 0usize;
            while got < events.len() {
                if let Some((_, a)) = server.pop_wait(Duration::from_millis(50)) {
                    std::thread::sleep(Duration::from_millis(1));
                    tx.send(a).unwrap();
                    got += 1;
                }
            }
        });
        let mut client = connect(&server);
        let mut backoff = DeferBackoff::new(1, 16, 7);
        let summary = send_events(&mut client, 0, &events, 8, &mut backoff).unwrap();
        assert_eq!(summary.sent, 200, "every event acknowledged");
        assert_eq!(summary.batches, 25);
        assert!(
            summary.retries > 0,
            "a cap-8 queue with a slow consumer must bounce at least once"
        );
    });
    // Exactly once, in order: the drained stream equals the input.
    let drained: Vec<Arrival> = rx.try_iter().collect();
    assert_eq!(drained, events);
    assert_eq!(server.stats().accepted, 200);
}

#[test]
fn status_server_answers_queries_and_refuses_writes() {
    let mut status = StatusServer::bind(
        "127.0.0.1:0",
        StatusInfo {
            role: Role::Follower,
            watermark: 5,
            assignments: 12,
            total_weight: 3.5,
        },
    )
    .unwrap();
    let mut client =
        Client::connect(&status.local_addr().to_string(), Duration::from_secs(5)).unwrap();
    match client.request(&Request::QueryStatus).unwrap() {
        Reply::Status(s) => {
            assert_eq!(s.role, Role::Follower);
            assert_eq!(s.watermark, 5);
            assert_eq!(s.assignments, 12);
        }
        other => panic!("expected STATUS, got {other:?}"),
    }
    // Event traffic is refused with the read-only class; the query
    // connection survives the refusal.
    match client
        .request(&Request::EventBatch {
            ns: 0,
            events: vec![ev(1)],
        })
        .unwrap()
    {
        Reply::Err { code, .. } => assert_eq!(code.as_u8(), 4),
        other => panic!("expected READ_ONLY, got {other:?}"),
    }
    status.update(StatusInfo {
        role: Role::Primary,
        watermark: 9,
        assignments: 30,
        total_weight: 11.0,
    });
    match client.request(&Request::QueryStatus).unwrap() {
        Reply::Status(s) => {
            assert_eq!(s.role, Role::Primary);
            assert_eq!(s.watermark, 9);
        }
        other => panic!("expected STATUS, got {other:?}"),
    }
    status.shutdown();
}

#[test]
fn query_report_returns_the_published_shard_report() {
    let server = NetIngress::bind(test_cfg(64)).unwrap();
    let mut client = connect(&server);
    // Before anything is published the report is the zero default.
    match client.request(&Request::QueryReport).unwrap() {
        Reply::ShardReport(r) => assert_eq!(r, ShardReportInfo::default()),
        other => panic!("expected SHARD_REPORT, got {other:?}"),
    }
    let published = ShardReportInfo {
        shard: 2,
        n_shards: 4,
        poisoned: false,
        namespaces: 3,
        events: 128,
        foreign_events: 5,
        decisions: 90,
        assignments: 40,
        total_weight: 17.25,
    };
    server.set_report(published);
    match client.request(&Request::QueryReport).unwrap() {
        Reply::ShardReport(r) => assert_eq!(r, published),
        other => panic!("expected SHARD_REPORT, got {other:?}"),
    }
}

#[test]
fn send_events_surfaces_server_rejection() {
    let server = NetIngress::bind(test_cfg(4)).unwrap();
    let mut client = connect(&server);
    let mut backoff = DeferBackoff::new(1, 8, 3);
    // Batch size 5 can never fit capacity 4: the client gets the typed
    // rejection instead of retrying forever.
    let events: Vec<Arrival> = (0..5).map(ev).collect();
    match send_events(&mut client, 0, &events, 5, &mut backoff) {
        Err(ClientError::Rejected { code, .. }) => assert_eq!(code, 3),
        other => panic!("expected rejection, got {other:?}"),
    }
}
