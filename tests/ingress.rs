//! The network ingress hands its drive loop whole admitted frames.
//!
//! `NetIngress::drive` takes one admitted frame per queue lock and hands
//! it to `step` as its namespace and its events; an empty frame is an idle
//! tick. These tests run real loopback clients against it and check that:
//!
//! - every admitted frame reaches `step` exactly once, whole, in
//!   per-connection order, with its namespace (three clients, two
//!   namespaces);
//! - the frame being applied counts against `queue_cap`: while `step`
//!   holds a full-cap frame, the next frame is bounced with `RETRY_AFTER`,
//!   and it is admitted once `step` has returned;
//! - `pop_wait` calls interleaved with frames lose no event and mis-tag
//!   none;
//! - the loop returns only after `FIN` and an empty queue.

use mbta::net::{send_events, Client, NetConfig, NetIngress, Reply, Request};
use mbta::service::{Arrival, DeferBackoff, ServiceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

/// An arrival whose task id names it uniquely.
fn ev(id: u32) -> Arrival {
    Arrival {
        time: id as f64,
        event: ServiceEvent::TaskPost(id),
    }
}

fn id_of(a: &Arrival) -> u32 {
    match a.event {
        ServiceEvent::TaskPost(id) => id,
        other => panic!("unexpected event {other:?}"),
    }
}

fn bind(queue_cap: usize) -> NetIngress {
    NetIngress::bind(NetConfig {
        queue_cap,
        read_timeout: Duration::from_secs(10),
        retry_base_ms: 1,
        retry_cap_ms: 8,
        ..NetConfig::default()
    })
    .unwrap()
}

fn connect(ingress: &NetIngress) -> Client {
    Client::connect(&ingress.local_addr().to_string(), Duration::from_secs(5)).unwrap()
}

/// Sends `events` as one frame, waiting out any `RETRY_AFTER`.
fn send_frame(client: &mut Client, ns: u32, events: &[Arrival]) {
    let mut backoff = DeferBackoff::new(1, 8, u64::from(ns));
    let sent = send_events(client, ns, events, events.len(), &mut backoff).unwrap();
    assert_eq!(sent.sent, events.len() as u64);
}

fn fin(ingress: &NetIngress) {
    let reply = connect(ingress).request(&Request::Fin).unwrap();
    assert_eq!(reply, Reply::Ok { accepted: 0 });
}

/// Every frame `step` was handed, idle ticks left out.
fn drive_collect(ingress: &NetIngress) -> Vec<(u32, Vec<Arrival>)> {
    let mut frames = Vec::new();
    ingress
        .drive(|ns, events| {
            if !events.is_empty() {
                frames.push((ns, events.to_vec()));
            }
            Ok::<(), ()>(())
        })
        .unwrap();
    frames
}

#[test]
fn drive_hands_every_frame_once_whole_in_connection_order() {
    let ingress = bind(256);
    // Client c sends 40 frames of 1..=23 events; client 2 alternates
    // between the two namespaces. Ids are unique: c * 100_000 + seq.
    let sent: Vec<Vec<(u32, Vec<Arrival>)>> = (0..3u32)
        .map(|c| {
            let mut seq = c * 100_000;
            (0..40u32)
                .map(|k| {
                    let ns = if c == 2 { k % 2 } else { c };
                    let len = 1 + (k * 7 + c * 5) % 23;
                    let frame = (seq..seq + len).map(ev).collect();
                    seq += len;
                    (ns, frame)
                })
                .collect()
        })
        .collect();
    let got = std::thread::scope(|scope| {
        let senders: Vec<_> = sent
            .iter()
            .map(|frames| {
                let ingress = &ingress;
                scope.spawn(move || {
                    let mut client = connect(ingress);
                    for (ns, events) in frames {
                        send_frame(&mut client, *ns, events);
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            for s in senders {
                s.join().unwrap();
            }
            fin(&ingress);
        });
        drive_collect(&ingress)
    });

    // Each received frame is one sent frame, whole, with its namespace,
    // and each client's frames arrive in the order it sent them.
    let by_first: HashMap<u32, (usize, usize)> = sent
        .iter()
        .enumerate()
        .flat_map(|(c, frames)| {
            frames
                .iter()
                .enumerate()
                .map(move |(k, (_, events))| (id_of(&events[0]), (c, k)))
        })
        .collect();
    let mut next = [0usize; 3];
    for (ns, events) in &got {
        let &(c, k) = by_first.get(&id_of(&events[0])).expect("a sent frame");
        assert_eq!(k, next[c], "client {c}: frame out of order or repeated");
        next[c] += 1;
        assert_eq!((*ns, events), (sent[c][k].0, &sent[c][k].1));
    }
    assert_eq!(next, [40; 3], "every frame handed exactly once");
    assert!(ingress.is_drained());
}

#[test]
fn the_frame_in_application_counts_against_the_cap() {
    let ingress = bind(64);
    let mut client = connect(&ingress);
    let full: Vec<Arrival> = (0..64).map(ev).collect();
    assert_eq!(
        client.send_batch(0, &full).unwrap(),
        Reply::Ok { accepted: 64 }
    );
    let barrier = Barrier::new(2);
    let (idle_tx, idle_rx) = mpsc::channel::<()>();
    let held = AtomicBool::new(false);
    let (held_reply, after_reply, got) = std::thread::scope(|scope| {
        let drain = scope.spawn(|| {
            let mut frames = Vec::new();
            ingress
                .drive(|ns, events| {
                    if events.is_empty() {
                        let _ = idle_tx.send(());
                    } else if !held.swap(true, Ordering::SeqCst) {
                        // Hold the first frame in application until the
                        // main thread has probed the cap.
                        barrier.wait();
                        barrier.wait();
                    }
                    frames.extend(events.iter().map(|a| (ns, id_of(a))));
                    Ok::<(), ()>(())
                })
                .unwrap();
            frames
        });
        barrier.wait();
        // The queue is empty but the 64 events being applied still fill
        // the cap: even one more event must bounce. The replies are
        // checked once the drive loop has finished, so a failure cannot
        // leave it parked on the barrier.
        let one = [ev(64)];
        let held_reply = client.send_batch(1, &one).unwrap();
        barrier.wait();
        // An idle tick comes only after `step` returned the frame.
        idle_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let after_reply = client.send_batch(1, &one).unwrap();
        fin(&ingress);
        (held_reply, after_reply, drain.join().unwrap())
    });
    assert!(
        matches!(held_reply, Reply::RetryAfter { hint_ms } if hint_ms >= 1),
        "expected RETRY_AFTER while the frame is applied, got {held_reply:?}"
    );
    assert_eq!(after_reply, Reply::Ok { accepted: 1 });
    let want: Vec<(u32, u32)> = (0..64).map(|i| (0, i)).chain([(1, 64)]).collect();
    assert_eq!(got, want);
    assert_eq!(ingress.stats().accepted, 65);
}

#[test]
fn pop_wait_interleaved_with_frames_loses_and_mistags_nothing() {
    let ingress = bind(4096);
    let mut client = connect(&ingress);
    let mut admitted: Vec<(u32, u32)> = Vec::new();
    let mut id = 0u32;
    for k in 0..30u32 {
        let ns = k % 2;
        let len = 1 + (k * 5) % 9;
        let frame: Vec<Arrival> = (id..id + len).map(ev).collect();
        send_frame(&mut client, ns, &frame);
        admitted.extend(frame.iter().map(|a| (ns, id_of(a))));
        id += len;
    }
    fin(&ingress);

    // Two pops split the first frame; inside `step`, zero to two more
    // pops take the head of the following frames. Reception order must
    // be admission order, every event carrying its frame's namespace.
    let mut got: Vec<(u32, u32)> = (0..2)
        .map(|_| {
            let (ns, a) = ingress.pop_wait(Duration::from_secs(1)).unwrap();
            (ns, id_of(&a))
        })
        .collect();
    let mut steps = 0usize;
    ingress
        .drive(|ns, events| {
            got.extend(events.iter().map(|a| (ns, id_of(a))));
            for _ in 0..steps % 3 {
                if let Some((ns, a)) = ingress.pop_wait(Duration::ZERO) {
                    got.push((ns, id_of(&a)));
                }
            }
            steps += 1;
            Ok::<(), ()>(())
        })
        .unwrap();
    assert_eq!(got, admitted);
    assert!(ingress.pop_wait(Duration::ZERO).is_none());
}

#[test]
fn drive_returns_only_after_fin_and_an_empty_queue() {
    let ingress = bind(256);
    let mut client = connect(&ingress);
    let returned = AtomicBool::new(false);
    let (idle_tx, idle_rx) = mpsc::channel::<usize>();
    std::thread::scope(|scope| {
        let drain = scope.spawn(|| {
            let mut applied = 0usize;
            ingress
                .drive(|_, events| {
                    applied += events.len();
                    if events.is_empty() {
                        let _ = idle_tx.send(applied);
                    }
                    Ok::<(), ()>(())
                })
                .unwrap();
            returned.store(true, Ordering::SeqCst);
            applied
        });
        // No FIN yet: the queue empties and the loop keeps ticking.
        send_frame(&mut client, 0, &(0..10).map(ev).collect::<Vec<_>>());
        while idle_rx.recv_timeout(Duration::from_secs(5)).unwrap() < 10 {}
        idle_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(!returned.load(Ordering::SeqCst), "returned before FIN");
        assert!(!ingress.is_drained());
        fin(&ingress);
        assert_eq!(drain.join().unwrap(), 10);
    });

    // FIN with frames still queued: every frame is handed before the end.
    let ingress = bind(256);
    let mut client = connect(&ingress);
    for k in 0..5u32 {
        send_frame(&mut client, k % 2, &[ev(k)]);
    }
    fin(&ingress);
    assert!(ingress.fin_received());
    assert!(!ingress.is_drained(), "FIN alone does not drain the queue");
    let got = drive_collect(&ingress);
    assert_eq!(got.len(), 5);
    assert!(ingress.is_drained());
}
