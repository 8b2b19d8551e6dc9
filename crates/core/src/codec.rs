//! Byte-level codec for [`Msg`] — the payload format carried inside
//! `octopus_net::wire` frames.
//!
//! The simulator never serializes messages (its delivery lanes carry
//! them in memory), but the UDP transport does, through
//! [`octopus_net::encode_frame`] and its [`octopus_net::FrameHeader`]. Every field is big-endian and fixed-width where the type is
//! fixed-width; variable-length sequences carry a `u32` count that is
//! validated against the remaining bytes before any allocation
//! ([`PayloadReader::seq_len`]), so a forged length cannot balloon
//! memory. Decoding never panics: every malformation maps to a
//! [`DecodeError`], which the frame layer surfaces as
//! `FrameError::BadPayload`.
//!
//! [`Msg::OnionReply`] nests a full `Msg` as its payload, so decoding is
//! recursive; [`MAX_ONION_DEPTH`] bounds the recursion and deeper inputs
//! are rejected with [`DecodeError::TooDeep`] instead of blowing the
//! stack.

use std::borrow::Borrow;
use std::sync::Arc;

use octopus_chord::{RoutingTable, SignedRoutingTable};
use octopus_crypto::{Certificate, PublicKey, Signature};
use octopus_id::NodeId;
use octopus_net::{DecodeError, PayloadReader, WireCodec};

use crate::messages::{Delegation, ExitAction, Hop, Msg, OnionPacket, ReceiptToken, Report};

/// Deepest allowed [`Msg::OnionReply`] nesting. Honest traffic nests
/// exactly once (a `Table` or `WalkResult` inside the reply onion);
/// the bound only exists to stop a hostile frame from causing unbounded
/// recursion.
pub const MAX_ONION_DEPTH: usize = 16;

/// Minimum encoded size of a [`SignedRoutingTable`]: 4-byte table
/// length, the empty-table encoding (8 owner + 3 × (1 tag + 4 len)),
/// timestamp, signature, and certificate.
const SIGNED_TABLE_MIN: usize = 4 + (8 + 3 * 5) + 8 + 8 + CERT_BYTES;

/// Encoded size of a [`Certificate`]: node_id + address + public key
/// (n, e) + expires_at + ca_signature.
const CERT_BYTES: usize = 8 + 4 + 16 + 8 + 8;

fn put_id(out: &mut Vec<u8>, id: NodeId) {
    out.extend_from_slice(&id.0.to_be_bytes());
}

fn get_id(r: &mut PayloadReader<'_>) -> Result<NodeId, DecodeError> {
    Ok(NodeId(r.u64()?))
}

fn put_ids(out: &mut Vec<u8>, ids: &[NodeId]) {
    out.extend_from_slice(&(ids.len() as u32).to_be_bytes());
    for id in ids {
        put_id(out, *id);
    }
}

fn get_ids(r: &mut PayloadReader<'_>) -> Result<Vec<NodeId>, DecodeError> {
    let n = r.seq_len(8)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(get_id(r)?);
    }
    Ok(ids)
}

fn get_bool(r: &mut PayloadReader<'_>) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_cert(out: &mut Vec<u8>, c: &Certificate) {
    put_id(out, c.node_id);
    out.extend_from_slice(&c.address.to_be_bytes());
    out.extend_from_slice(&c.public_key.n.to_be_bytes());
    out.extend_from_slice(&c.public_key.e.to_be_bytes());
    out.extend_from_slice(&c.expires_at.to_be_bytes());
    out.extend_from_slice(&c.ca_signature.0.to_be_bytes());
}

fn get_cert(r: &mut PayloadReader<'_>) -> Result<Certificate, DecodeError> {
    Ok(Certificate {
        node_id: get_id(r)?,
        address: r.u32()?,
        public_key: PublicKey {
            n: r.u64()?,
            e: r.u64()?,
        },
        expires_at: r.u64()?,
        ca_signature: Signature(r.u64()?),
    })
}

fn put_signed_table(out: &mut Vec<u8>, t: &SignedRoutingTable) {
    out.extend_from_slice(&(t.table.encoded_len() as u32).to_be_bytes());
    t.table.encode_into(out);
    out.extend_from_slice(&t.timestamp.to_be_bytes());
    out.extend_from_slice(&t.signature.0.to_be_bytes());
    put_cert(out, &t.certificate);
}

fn get_signed_table(r: &mut PayloadReader<'_>) -> Result<SignedRoutingTable, DecodeError> {
    let len = r.u32()? as usize;
    if len > r.remaining() {
        return Err(DecodeError::BadLength);
    }
    let table_bytes = r.take(len)?;
    // RoutingTable::decode accepts exactly the canonical (signed) form,
    // so a table that survives this call still verifies against its
    // signature after re-encoding.
    let table = RoutingTable::decode(table_bytes).ok_or(DecodeError::BadLength)?;
    Ok(SignedRoutingTable {
        table,
        timestamp: r.u64()?,
        signature: Signature(r.u64()?),
        certificate: Arc::new(get_cert(r)?),
    })
}

/// Tables held by value (`WalkResult`) or shared (`CaProofReply`)
/// encode alike.
fn put_signed_tables<T: Borrow<SignedRoutingTable>>(out: &mut Vec<u8>, ts: &[T]) {
    out.extend_from_slice(&(ts.len() as u32).to_be_bytes());
    for t in ts {
        put_signed_table(out, t.borrow());
    }
}

fn get_signed_tables(r: &mut PayloadReader<'_>) -> Result<Vec<SignedRoutingTable>, DecodeError> {
    let n = r.seq_len(SIGNED_TABLE_MIN)?;
    let mut ts = Vec::with_capacity(n);
    for _ in 0..n {
        ts.push(get_signed_table(r)?);
    }
    Ok(ts)
}

fn put_receipt(out: &mut Vec<u8>, t: &ReceiptToken) {
    out.extend_from_slice(&t.flow.to_be_bytes());
    put_id(out, t.signer);
    out.extend_from_slice(&t.sig.0.to_be_bytes());
}

fn get_receipt(r: &mut PayloadReader<'_>) -> Result<ReceiptToken, DecodeError> {
    Ok(ReceiptToken {
        flow: r.u64()?,
        signer: get_id(r)?,
        sig: Signature(r.u64()?),
    })
}

fn put_action(out: &mut Vec<u8>, a: &ExitAction) {
    match a {
        ExitAction::QueryTable { target } => {
            out.push(0);
            put_id(out, *target);
        }
        ExitAction::Delegate(d) => {
            out.push(1);
            out.extend_from_slice(&d.seed.to_be_bytes());
            out.extend_from_slice(&(d.length as u64).to_be_bytes());
            put_ids(out, &d.fingers);
        }
    }
}

fn get_action(r: &mut PayloadReader<'_>) -> Result<ExitAction, DecodeError> {
    match r.u8()? {
        0 => Ok(ExitAction::QueryTable { target: get_id(r)? }),
        1 => {
            let seed = r.u64()?;
            let length = r.u64()?;
            // a walk length beyond the payload's own id capacity is a lie
            if length > octopus_net::wire::MAX_PAYLOAD as u64 / 8 {
                return Err(DecodeError::BadLength);
            }
            Ok(ExitAction::Delegate(Box::new(Delegation {
                seed,
                length: length as usize,
                fingers: get_ids(r)?,
            })))
        }
        t => Err(DecodeError::BadTag(t)),
    }
}

fn put_onion(out: &mut Vec<u8>, p: &OnionPacket) {
    out.extend_from_slice(&p.flow.to_be_bytes());
    out.extend_from_slice(&(p.route.len() as u32).to_be_bytes());
    for h in &p.route {
        put_id(out, h.node);
        out.push(u8::from(h.delay));
    }
    put_action(out, &p.action);
}

fn get_onion(r: &mut PayloadReader<'_>) -> Result<OnionPacket, DecodeError> {
    let flow = r.u64()?;
    let n = r.seq_len(9)?;
    let mut route = Vec::with_capacity(n);
    for _ in 0..n {
        route.push(Hop {
            node: get_id(r)?,
            delay: get_bool(r)?,
        });
    }
    Ok(OnionPacket {
        flow,
        route,
        action: get_action(r)?,
    })
}

fn put_report(out: &mut Vec<u8>, rep: &Report) {
    match rep {
        Report::ListOmission {
            reporter,
            reporter_cert,
            omitted,
            accused_list,
        } => {
            out.push(0);
            put_id(out, *reporter);
            put_cert(out, reporter_cert);
            put_id(out, *omitted);
            put_signed_table(out, accused_list);
        }
        Report::FingerManipulation {
            reporter,
            reporter_cert,
            table,
            finger_index,
            finger_pred_list,
            pred_succ_list,
        } => {
            out.push(1);
            put_id(out, *reporter);
            put_cert(out, reporter_cert);
            put_signed_table(out, table);
            out.extend_from_slice(&finger_index.to_be_bytes());
            put_signed_table(out, finger_pred_list);
            put_signed_table(out, pred_succ_list);
        }
        Report::Dropper {
            reporter,
            reporter_cert,
            flow,
            relays,
            target,
            initiator_receipt,
        } => {
            out.push(2);
            put_id(out, *reporter);
            put_cert(out, reporter_cert);
            out.extend_from_slice(&flow.to_be_bytes());
            put_ids(out, relays);
            put_id(out, *target);
            match initiator_receipt {
                None => out.push(0),
                Some(t) => {
                    out.push(1);
                    put_receipt(out, t);
                }
            }
        }
    }
}

fn get_report(r: &mut PayloadReader<'_>) -> Result<Report, DecodeError> {
    match r.u8()? {
        0 => Ok(Report::ListOmission {
            reporter: get_id(r)?,
            reporter_cert: get_cert(r)?,
            omitted: get_id(r)?,
            accused_list: Box::new(get_signed_table(r)?),
        }),
        1 => Ok(Report::FingerManipulation {
            reporter: get_id(r)?,
            reporter_cert: get_cert(r)?,
            table: Box::new(get_signed_table(r)?),
            finger_index: r.u32()?,
            finger_pred_list: Box::new(get_signed_table(r)?),
            pred_succ_list: Box::new(get_signed_table(r)?),
        }),
        2 => Ok(Report::Dropper {
            reporter: get_id(r)?,
            reporter_cert: get_cert(r)?,
            flow: r.u64()?,
            relays: get_ids(r)?,
            target: get_id(r)?,
            initiator_receipt: match get_bool(r)? {
                false => None,
                true => Some(get_receipt(r)?),
            },
        }),
        t => Err(DecodeError::BadTag(t)),
    }
}

fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    match msg {
        Msg::GetSuccList { req } => {
            out.push(0);
            out.extend_from_slice(&req.to_be_bytes());
        }
        Msg::SuccList { req, list } => {
            out.push(1);
            out.extend_from_slice(&req.to_be_bytes());
            put_signed_table(out, list);
        }
        Msg::GetPredList { req } => {
            out.push(2);
            out.extend_from_slice(&req.to_be_bytes());
        }
        Msg::PredList { req, list } => {
            out.push(3);
            out.extend_from_slice(&req.to_be_bytes());
            put_signed_table(out, list);
        }
        Msg::GetTable { req } => {
            out.push(4);
            out.extend_from_slice(&req.to_be_bytes());
        }
        Msg::Table { req, table } => {
            out.push(5);
            out.extend_from_slice(&req.to_be_bytes());
            put_signed_table(out, table);
        }
        Msg::Onion(p) => {
            out.push(6);
            put_onion(out, p);
        }
        Msg::OnionReply { flow, payload } => {
            out.push(7);
            out.extend_from_slice(&flow.to_be_bytes());
            encode_msg(payload, out);
        }
        Msg::Receipt { token } => {
            out.push(8);
            put_receipt(out, token);
        }
        Msg::WalkResult { flow, tables } => {
            out.push(9);
            out.extend_from_slice(&flow.to_be_bytes());
            put_signed_tables(out, tables);
        }
        Msg::Report(rep) => {
            out.push(10);
            put_report(out, rep);
        }
        Msg::CaProofRequest { case } => {
            out.push(11);
            out.extend_from_slice(&case.to_be_bytes());
        }
        Msg::CaProofReply {
            case,
            own_list,
            proofs,
        } => {
            out.push(12);
            out.extend_from_slice(&case.to_be_bytes());
            put_signed_table(out, own_list);
            put_signed_tables(out, proofs);
        }
        Msg::CaReceiptRequest { case, flow } => {
            out.push(13);
            out.extend_from_slice(&case.to_be_bytes());
            out.extend_from_slice(&flow.to_be_bytes());
        }
        Msg::CaReceiptReply {
            case,
            flow,
            receipt,
        } => {
            out.push(14);
            out.extend_from_slice(&case.to_be_bytes());
            out.extend_from_slice(&flow.to_be_bytes());
            match receipt {
                None => out.push(0),
                Some(t) => {
                    out.push(1);
                    put_receipt(out, t);
                }
            }
        }
        Msg::CaProvRequest { case, slot } => {
            out.push(15);
            out.extend_from_slice(&case.to_be_bytes());
            out.extend_from_slice(&slot.to_be_bytes());
        }
        Msg::CaProvReply { case, prov } => {
            out.push(16);
            out.extend_from_slice(&case.to_be_bytes());
            match prov {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    put_signed_table(out, p);
                }
            }
        }
        Msg::Revocation { revoked } => {
            out.push(17);
            put_ids(out, revoked);
        }
    }
}

fn decode_msg(r: &mut PayloadReader<'_>, depth: usize) -> Result<Msg, DecodeError> {
    if depth > MAX_ONION_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    match r.u8()? {
        0 => Ok(Msg::GetSuccList { req: r.u64()? }),
        1 => Ok(Msg::SuccList {
            req: r.u64()?,
            list: Box::new(get_signed_table(r)?),
        }),
        2 => Ok(Msg::GetPredList { req: r.u64()? }),
        3 => Ok(Msg::PredList {
            req: r.u64()?,
            list: Box::new(get_signed_table(r)?),
        }),
        4 => Ok(Msg::GetTable { req: r.u64()? }),
        5 => Ok(Msg::Table {
            req: r.u64()?,
            table: Box::new(get_signed_table(r)?),
        }),
        6 => Ok(Msg::Onion(get_onion(r)?)),
        7 => Ok(Msg::OnionReply {
            flow: r.u64()?,
            payload: Box::new(decode_msg(r, depth + 1)?),
        }),
        8 => Ok(Msg::Receipt {
            token: get_receipt(r)?,
        }),
        9 => Ok(Msg::WalkResult {
            flow: r.u64()?,
            tables: get_signed_tables(r)?,
        }),
        10 => Ok(Msg::Report(Box::new(get_report(r)?))),
        11 => Ok(Msg::CaProofRequest { case: r.u64()? }),
        12 => Ok(Msg::CaProofReply {
            case: r.u64()?,
            own_list: Box::new(get_signed_table(r)?),
            proofs: get_signed_tables(r)?.into_iter().map(Arc::new).collect(),
        }),
        13 => Ok(Msg::CaReceiptRequest {
            case: r.u64()?,
            flow: r.u64()?,
        }),
        14 => Ok(Msg::CaReceiptReply {
            case: r.u64()?,
            flow: r.u64()?,
            receipt: match get_bool(r)? {
                false => None,
                true => Some(get_receipt(r)?),
            },
        }),
        15 => Ok(Msg::CaProvRequest {
            case: r.u64()?,
            slot: r.u32()?,
        }),
        16 => Ok(Msg::CaProvReply {
            case: r.u64()?,
            prov: match get_bool(r)? {
                false => None,
                true => Some(Box::new(get_signed_table(r)?)),
            },
        }),
        17 => Ok(Msg::Revocation {
            revoked: get_ids(r)?.into(),
        }),
        t => Err(DecodeError::BadTag(t)),
    }
}

impl WireCodec for Msg {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        encode_msg(self, out);
    }

    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
        decode_msg(r, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_crypto::{CertificateAuthority, KeyPair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `put_signed_table` as it was: the table encoded into a buffer of
    /// its own, then copied behind its length.
    fn put_signed_table_reference(out: &mut Vec<u8>, t: &SignedRoutingTable) {
        let table_bytes = t.table.encode();
        out.extend_from_slice(&(table_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&table_bytes);
        out.extend_from_slice(&t.timestamp.to_be_bytes());
        out.extend_from_slice(&t.signature.0.to_be_bytes());
        put_cert(out, &t.certificate);
    }

    #[test]
    fn signed_table_bytes_unchanged_by_in_place_encoding() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut ca = CertificateAuthority::new(&mut rng);
        let kp = KeyPair::generate(&mut rng);
        let owner = NodeId(99);
        let cert = ca.issue(owner, 7, kp.public(), u64::MAX);
        let ids = |n: u64| (1..=n).map(NodeId).collect::<Vec<_>>();
        for (fingers, successors, predecessors) in [(0, 0, 0), (0, 1, 0), (12, 8, 4)] {
            let table = RoutingTable {
                owner,
                fingers: ids(fingers),
                successors: ids(successors),
                predecessors: ids(predecessors),
            };
            let signed = SignedRoutingTable::sign(table, 5, &kp, cert);
            // behind bytes already there, as inside a frame
            let (mut got, mut want) = (vec![0xee; 3], vec![0xee; 3]);
            put_signed_table(&mut got, &signed);
            put_signed_table_reference(&mut want, &signed);
            assert_eq!(got, want, "{} entries", fingers + successors + predecessors);
            let mut r = PayloadReader::new(&got[3..]);
            assert_eq!(get_signed_table(&mut r), Ok(signed));
            assert_eq!(r.remaining(), 0);
        }
    }
}
