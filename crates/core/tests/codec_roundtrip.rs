//! Wire-codec hardening: every [`Msg`] kind roundtrips through the
//! framed codec, alone and packed with another into one datagram, and a
//! corpus of malformed frames and datagrams (truncations, bit flips,
//! forged lengths, hostile nesting, pure noise) is rejected with an
//! error — never a panic.

use std::sync::Arc;

use octopus_chord::{RoutingTable, SignedRoutingTable};
use octopus_core::codec::MAX_ONION_DEPTH;
use octopus_core::messages::{Delegation, ExitAction, Hop, Msg, OnionPacket, ReceiptToken, Report};
use octopus_crypto::{Certificate, CertificateAuthority, KeyPair, PublicKey, Signature};
use octopus_id::NodeId;
use octopus_net::wire::{FRAME_MAGIC, FRAME_OVERHEAD, SCHEMA_VERSION};
use octopus_net::{
    append_frame, decode_datagram, decode_frame, encode_frame, DecodeError, FrameError,
    FrameHeader, WireCodec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn header() -> FrameHeader {
    FrameHeader {
        from: NodeId(0x1111_2222_3333_4444),
        to: NodeId(0x5555_6666_7777_8888),
    }
}

struct Fixture {
    ca: CertificateAuthority,
    kp: KeyPair,
    cert: Certificate,
}

fn fixture(id: NodeId) -> Fixture {
    let mut rng = StdRng::seed_from_u64(id.0 ^ 0xc0dec);
    let mut ca = CertificateAuthority::new(&mut rng);
    let kp = KeyPair::generate(&mut rng);
    let cert = ca.issue(id, 7, kp.public(), u64::MAX);
    Fixture { ca, kp, cert }
}

fn signed_table(rng: &mut StdRng) -> SignedRoutingTable {
    let owner = NodeId(rng.gen());
    let f = fixture(owner);
    let table = RoutingTable {
        owner,
        fingers: (0..rng.gen_range(0..5))
            .map(|_| NodeId(rng.gen()))
            .collect(),
        successors: (0..rng.gen_range(0..5))
            .map(|_| NodeId(rng.gen()))
            .collect(),
        predecessors: (0..rng.gen_range(0..3))
            .map(|_| NodeId(rng.gen()))
            .collect(),
    };
    SignedRoutingTable::sign(table, rng.gen_range(0..1_000_000), &f.kp, f.cert)
}

fn receipt(rng: &mut StdRng) -> ReceiptToken {
    ReceiptToken {
        flow: rng.gen(),
        signer: NodeId(rng.gen()),
        sig: Signature(rng.gen()),
    }
}

fn cert(rng: &mut StdRng) -> Certificate {
    Certificate {
        node_id: NodeId(rng.gen()),
        address: rng.gen(),
        public_key: PublicKey {
            n: rng.gen(),
            e: rng.gen(),
        },
        expires_at: rng.gen(),
        ca_signature: Signature(rng.gen()),
    }
}

/// One seeded instance of every `Msg` variant (and every nested enum
/// arm), so the corpus below covers the whole tag space.
fn all_variants(seed: u64) -> Vec<Msg> {
    let rng = &mut StdRng::seed_from_u64(seed);
    vec![
        Msg::GetSuccList { req: rng.gen() },
        Msg::SuccList {
            req: rng.gen(),
            list: Box::new(signed_table(rng)),
        },
        Msg::GetPredList { req: rng.gen() },
        Msg::PredList {
            req: rng.gen(),
            list: Box::new(signed_table(rng)),
        },
        Msg::GetTable { req: rng.gen() },
        Msg::Table {
            req: rng.gen(),
            table: Box::new(signed_table(rng)),
        },
        Msg::Onion(OnionPacket {
            flow: rng.gen(),
            route: vec![
                Hop {
                    node: NodeId(rng.gen()),
                    delay: false,
                },
                Hop {
                    node: NodeId(rng.gen()),
                    delay: true,
                },
            ],
            action: ExitAction::QueryTable {
                target: NodeId(rng.gen()),
            },
        }),
        Msg::Onion(OnionPacket {
            flow: rng.gen(),
            route: vec![],
            action: ExitAction::Delegate(Box::new(Delegation {
                seed: rng.gen(),
                length: 3,
                fingers: vec![NodeId(rng.gen()), NodeId(rng.gen())],
            })),
        }),
        Msg::OnionReply {
            flow: rng.gen(),
            payload: Box::new(Msg::Table {
                req: rng.gen(),
                table: Box::new(signed_table(rng)),
            }),
        },
        Msg::OnionReply {
            flow: rng.gen(),
            payload: Box::new(Msg::WalkResult {
                flow: rng.gen(),
                tables: vec![signed_table(rng)],
            }),
        },
        Msg::Receipt {
            token: receipt(rng),
        },
        Msg::WalkResult {
            flow: rng.gen(),
            tables: vec![signed_table(rng), signed_table(rng)],
        },
        Msg::Report(Box::new(Report::ListOmission {
            reporter: NodeId(rng.gen()),
            reporter_cert: cert(rng),
            omitted: NodeId(rng.gen()),
            accused_list: Box::new(signed_table(rng)),
        })),
        Msg::Report(Box::new(Report::FingerManipulation {
            reporter: NodeId(rng.gen()),
            reporter_cert: cert(rng),
            table: Box::new(signed_table(rng)),
            finger_index: rng.gen_range(0..8),
            finger_pred_list: Box::new(signed_table(rng)),
            pred_succ_list: Box::new(signed_table(rng)),
        })),
        Msg::Report(Box::new(Report::Dropper {
            reporter: NodeId(rng.gen()),
            reporter_cert: cert(rng),
            flow: rng.gen(),
            relays: vec![NodeId(rng.gen()), NodeId(rng.gen()), NodeId(rng.gen())],
            target: NodeId(rng.gen()),
            initiator_receipt: Some(receipt(rng)),
        })),
        Msg::Report(Box::new(Report::Dropper {
            reporter: NodeId(rng.gen()),
            reporter_cert: cert(rng),
            flow: rng.gen(),
            relays: vec![],
            target: NodeId(rng.gen()),
            initiator_receipt: None,
        })),
        Msg::CaProofRequest { case: rng.gen() },
        Msg::CaProofReply {
            case: rng.gen(),
            own_list: Box::new(signed_table(rng)),
            proofs: vec![Arc::new(signed_table(rng))],
        },
        Msg::CaReceiptRequest {
            case: rng.gen(),
            flow: rng.gen(),
        },
        Msg::CaReceiptReply {
            case: rng.gen(),
            flow: rng.gen(),
            receipt: Some(receipt(rng)),
        },
        Msg::CaReceiptReply {
            case: rng.gen(),
            flow: rng.gen(),
            receipt: None,
        },
        Msg::CaProvRequest {
            case: rng.gen(),
            slot: rng.gen_range(0..16),
        },
        Msg::CaProvReply {
            case: rng.gen(),
            prov: Some(Box::new(signed_table(rng))),
        },
        Msg::CaProvReply {
            case: rng.gen(),
            prov: None,
        },
        Msg::Revocation {
            revoked: [NodeId(rng.gen()), NodeId(rng.gen())].into(),
        },
        Msg::Revocation { revoked: [].into() },
    ]
}

#[test]
fn every_variant_roundtrips() {
    for seed in 0..8u64 {
        for msg in all_variants(seed) {
            let bytes = encode_frame(header(), &msg);
            let (h, back): (FrameHeader, Msg) = decode_frame(&bytes).expect("valid frame decodes");
            assert_eq!(h, header());
            assert_eq!(back, msg, "seed {seed}");
        }
    }
}

/// The frame encoder as it was before the one-pass encoder: payload in a
/// buffer of its own, checksum over three chunks, everything copied into
/// a third buffer. Kept as the reference the one-pass encoder must match.
fn reference_encode_frame(header: FrameHeader, msg: &Msg) -> Vec<u8> {
    let mut payload = Vec::new();
    msg.encode_payload(&mut payload);
    let from = header.from.0.to_be_bytes();
    let to = header.to.0.to_be_bytes();
    let checksum = fnv1a_32(&[&from, &to, &payload]);
    let mut out = Vec::new();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&checksum.to_be_bytes());
    out.extend_from_slice(&from);
    out.extend_from_slice(&to);
    out.extend_from_slice(&payload);
    out
}

#[test]
fn one_pass_encoder_matches_the_reference_on_every_variant() {
    // one buffer for the whole corpus, as a host reuses its pending
    // buffer: every frame but the first lands on the bytes of another
    let mut reused = Vec::new();
    for seed in 0..8u64 {
        for msg in all_variants(seed) {
            let want = reference_encode_frame(header(), &msg);
            assert_eq!(encode_frame(header(), &msg), want, "seed {seed}: {msg:?}");
            let mut empty = Vec::new();
            append_frame(header(), &msg, &mut empty).expect("fits a frame");
            assert_eq!(empty, want, "onto an empty buffer, seed {seed}");
            // behind bytes already there, which stay
            let held = vec![0xa5; 257];
            let mut behind = held.clone();
            append_frame(header(), &msg, &mut behind).expect("fits a frame");
            assert_eq!(behind[..held.len()], held[..], "seed {seed}");
            assert_eq!(
                behind[held.len()..],
                want[..],
                "behind a frame, seed {seed}"
            );
            reused.clear();
            append_frame(header(), &msg, &mut reused).expect("fits a frame");
            assert_eq!(reused, want, "into the reused buffer, seed {seed}");
        }
    }
}

#[test]
fn every_pair_of_variants_shares_a_datagram_in_order() {
    let msgs = all_variants(4);
    let mut datagram = Vec::new();
    let mut back = Vec::new();
    for first in &msgs {
        for second in &msgs {
            datagram.clear();
            append_frame(header(), first, &mut datagram).expect("fits");
            append_frame(header(), second, &mut datagram).expect("fits");
            back.clear();
            let h = decode_datagram::<Msg>(&datagram, &mut back).expect("decodes");
            assert_eq!(h, header());
            assert_eq!(back, [first.clone(), second.clone()]);
        }
    }
}

#[test]
fn a_one_frame_datagram_is_the_frame() {
    for msg in all_variants(5) {
        let frame = encode_frame(header(), &msg);
        let mut datagram = Vec::new();
        append_frame(header(), &msg, &mut datagram).expect("fits");
        assert_eq!(datagram, frame, "{msg:?}");
        let mut back = Vec::<Msg>::new();
        assert_eq!(decode_datagram(&frame, &mut back), Ok(header()));
        assert_eq!(back, [msg]);
    }
}

/// Three frames of `msgs`, in one datagram, and where each frame ends.
fn three_frames(msgs: &[Msg]) -> (Vec<u8>, Vec<usize>) {
    let mut datagram = Vec::new();
    let mut ends = Vec::new();
    for msg in &msgs[..3] {
        append_frame(header(), msg, &mut datagram).expect("fits");
        ends.push(datagram.len());
    }
    (datagram, ends)
}

/// Whether `decode_datagram` rejects `bytes` and delivers nothing.
fn rejected_whole(bytes: &[u8]) -> bool {
    let mut msgs = vec![Msg::GetTable { req: 7 }];
    let rejected = decode_datagram::<Msg>(bytes, &mut msgs).is_err();
    assert_eq!(
        msgs,
        [Msg::GetTable { req: 7 }],
        "a datagram half-delivered"
    );
    rejected
}

#[test]
fn a_three_frame_datagram_is_rejected_whole() {
    let variants = all_variants(6);
    for msgs in variants.chunks_exact(3) {
        let (good, ends) = three_frames(msgs);
        // a cut between frames leaves a shorter datagram, which decodes
        // to the frames before the cut; every other cut is rejected
        for cut in (0..good.len()).filter(|cut| !ends.contains(cut)) {
            assert!(rejected_whole(&good[..cut]), "cut at {cut} accepted");
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(rejected_whole(&bad), "flip at byte {i} accepted");
        }
        for tail in [&[0u8][..], b"OCT0", &good[..FRAME_OVERHEAD]] {
            let mut bad = good.clone();
            bad.extend_from_slice(tail);
            assert!(rejected_whole(&bad), "{} bytes after the end", tail.len());
        }
        // the last frame's length prefix points one byte past the end
        let mut bad = good.clone();
        let length_at = ends[1] + 6;
        let claimed = u32::from_be_bytes(bad[length_at..length_at + 4].try_into().unwrap());
        bad[length_at..length_at + 4].copy_from_slice(&(claimed + 1).to_be_bytes());
        assert!(rejected_whole(&bad), "a length past the end accepted");
    }
}

#[test]
fn signatures_survive_the_wire() {
    // the decode path reconstructs tables in canonical form, so a table
    // that crossed the wire still verifies against the CA key
    let mut rng = StdRng::seed_from_u64(42);
    let owner = NodeId(rng.gen());
    let f = fixture(owner);
    let table = RoutingTable {
        owner,
        fingers: vec![NodeId(rng.gen())],
        successors: vec![NodeId(rng.gen()), NodeId(rng.gen())],
        predecessors: vec![NodeId(rng.gen())],
    };
    let signed = SignedRoutingTable::sign(table, 99, &f.kp, f.cert);
    let msg = Msg::Table {
        req: 1,
        table: Box::new(signed),
    };
    let bytes = encode_frame(header(), &msg);
    let (_, back): (_, Msg) = decode_frame(&bytes).expect("decodes");
    let Msg::Table { table, .. } = back else {
        panic!("wrong variant");
    };
    table
        .verify(f.ca.public_key(), 99)
        .expect("signature valid after roundtrip");
}

#[test]
fn every_truncation_rejected() {
    for msg in all_variants(1) {
        let bytes = encode_frame(header(), &msg);
        for cut in 0..bytes.len() {
            assert!(
                decode_frame::<Msg>(&bytes[..cut]).is_err(),
                "truncation at {cut} of {} accepted",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_byte_flip_rejected() {
    // magic, version, length, checksum, header and payload corruption
    // all land in some FrameError — the checksum covers everything past
    // the length field, and the prelude fields are validated directly
    for msg in all_variants(2) {
        let bytes = encode_frame(header(), &msg);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_frame::<Msg>(&bad).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }
}

#[test]
fn trailing_bytes_rejected() {
    for msg in all_variants(3) {
        let mut bytes = encode_frame(header(), &msg);
        // extend the payload *and* fix up length + checksum so only the
        // payload-level trailing-byte check can catch it
        bytes.push(0xee);
        let claimed = bytes.len() as u32; // garbage, fails length check
        bytes[6..10].copy_from_slice(&claimed.to_be_bytes());
        assert!(decode_frame::<Msg>(&bytes).is_err());
    }
}

#[test]
fn hostile_onion_nesting_rejected() {
    // nest far past the guard; decode must refuse, not recurse to death
    let mut msg = Msg::GetTable { req: 1 };
    for _ in 0..(MAX_ONION_DEPTH + 8) {
        msg = Msg::OnionReply {
            flow: 7,
            payload: Box::new(msg),
        };
    }
    let bytes = encode_frame(header(), &msg);
    match decode_frame::<Msg>(&bytes) {
        Err(FrameError::BadPayload(DecodeError::TooDeep)) => {}
        other => panic!("expected TooDeep, got {other:?}"),
    }
}

#[test]
fn legitimate_onion_nesting_accepted() {
    let mut msg = Msg::GetTable { req: 1 };
    for _ in 0..MAX_ONION_DEPTH {
        msg = Msg::OnionReply {
            flow: 7,
            payload: Box::new(msg),
        };
    }
    let bytes = encode_frame(header(), &msg);
    let (_, back): (_, Msg) = decode_frame(&bytes).expect("within-bound nesting decodes");
    assert_eq!(back, msg);
}

#[test]
fn random_noise_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xf00d);
    for _ in 0..2000 {
        let len = rng.gen_range(0..200);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        // must return, not panic; odds of a valid checksum are ~2^-32
        let _ = decode_frame::<Msg>(&noise);
    }
}

#[test]
fn forged_sequence_lengths_rejected() {
    // a WalkResult claiming u32::MAX tables must die in seq_len before
    // any allocation happens
    let mut rng = StdRng::seed_from_u64(9);
    let msg = Msg::WalkResult {
        flow: 5,
        tables: vec![signed_table(&mut rng)],
    };
    let mut bytes = encode_frame(header(), &msg);
    // payload layout: tag(1) + flow(8) + count(4) + ...
    // frame prelude is 14 bytes, addresses 16 → payload starts at 30
    let count_at = 30 + 1 + 8;
    bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    // recompute the checksum so only the payload validation can reject
    let from = &bytes[14..22];
    let to = &bytes[22..30];
    let payload = &bytes[30..];
    let sum = fnv1a_32(&[from, to, payload]);
    let mut fixed = bytes.clone();
    fixed[10..14].copy_from_slice(&sum.to_be_bytes());
    match decode_frame::<Msg>(&fixed) {
        Err(FrameError::BadPayload(_)) => {}
        other => panic!("expected BadPayload, got {other:?}"),
    }
}

/// Mirror of the frame checksum, so corpus entries can forge
/// internally-consistent frames that only payload validation rejects.
fn fnv1a_32(chunks: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for chunk in chunks {
        for &b in *chunk {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}
