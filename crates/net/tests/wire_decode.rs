//! Hostile-input coverage of the wire decoders: `Request::decode` and
//! `Response::decode` take untrusted bytes, so they must never panic, and
//! any body they accept must be exactly what its decoded value encodes to
//! (the protocol has one encoding per message, so a body that decodes but
//! re-encodes differently would be a second, unpinned dialect).
//!
//! Inputs are arbitrary bodies of up to 256 bytes — also with the first
//! byte forced to every opcode (requests) or to every status (responses), so
//! each per-kind parser sees arbitrary payloads — and every single-byte
//! flip, every truncation and an extension of valid encodings of every
//! opcode.

use nscaching_kg::CorruptionSide;
use nscaching_net::wire::{Answer, ErrorCode, Request, Response};
use nscaching_serve::{RankedEntity, TopKQuery};
use proptest::prelude::*;

/// Up to 256 arbitrary bytes.
fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u32..256, 0..max + 1)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// One request of every opcode, from generated field values.
fn requests(a: u64, b: u64, text: &[u32]) -> [Request; 6] {
    let (lo, hi, top) = (a as u32, (a >> 32) as u32, (b >> 32) as u32);
    let side = if b & 1 == 0 {
        CorruptionSide::Tail
    } else {
        CorruptionSide::Head
    };
    [
        Request::Ping,
        Request::TopK(TopKQuery {
            relation: lo,
            entity: hi,
            direction: side,
            k: top,
        }),
        Request::Score {
            head: lo,
            relation: hi,
            tail: top,
        },
        Request::Rank {
            head: lo,
            relation: hi,
            tail: top,
            side,
        },
        Request::Reload {
            path: string_of(text),
        },
        Request::Stats,
    ]
}

/// Code points below U+0800: one- and two-byte UTF-8, no surrogates.
fn string_of(text: &[u32]) -> String {
    text.iter().filter_map(|&c| char::from_u32(c)).collect()
}

/// A success or a typed error answering `request`, from generated values.
fn response_to(request: &Request, a: u64, b: u64, text: &[u32]) -> Response {
    let degradation = (b >> 8) as u8;
    if b & 1 == 1 {
        let code = match ErrorCode::from_wire(1 + ((b >> 1) % 8) as u8) {
            Some(Err(code)) => code,
            other => unreachable!("codes 1..=8 are errors, got {other:?}"),
        };
        return Response::error(degradation, code, string_of(text));
    }
    let answer = match request {
        Request::Ping => Answer::Pong,
        Request::TopK(_) => Answer::TopK(
            text.iter()
                .map(|&c| RankedEntity {
                    entity: c,
                    score: f64::from_bits(a.rotate_left(c)),
                })
                .collect(),
        ),
        Request::Score { .. } => Answer::Score(f64::from_bits(a)),
        Request::Rank { .. } => Answer::Rank(f64::from_bits(a)),
        Request::Reload { .. } => Answer::Reloaded,
        Request::Stats => Answer::Stats(string_of(text)),
    };
    Response::ok(degradation, answer)
}

/// Every single-byte flip (xor with a non-zero `mask`), every truncation,
/// and `body` extended by `extension`.
fn mutations(body: &[u8], mask: u8, extension: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(2 * body.len() + 1);
    for at in 0..body.len() {
        let mut flipped = body.to_vec();
        flipped[at] ^= mask;
        out.push(flipped);
        out.push(body[..at].to_vec());
    }
    out.push([body, extension].concat());
    out
}

/// Decoding `body` as a request must not panic, and a body that decodes
/// must be what its request encodes to.
fn check_request(body: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(request) = Request::decode(body) {
        let mut again = Vec::new();
        request.encode(&mut again);
        prop_assert!(
            again == body,
            "{request:?} re-encodes to {again:?}, not {body:?}"
        );
    }
    Ok(())
}

/// The same for a response to `request`.
fn check_response(body: &[u8], request: &Request) -> Result<(), TestCaseError> {
    if let Ok(response) = Response::decode(body, request) {
        let mut again = Vec::new();
        response.encode(&mut again);
        prop_assert!(
            again == body,
            "{response:?} to {request:?} re-encodes to {again:?}, not {body:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_decode_never_panics_on_arbitrary_bodies(body in bytes(256)) {
        check_request(&body)?;
        if !body.is_empty() {
            // Every opcode's parser on the same arbitrary payload, plus one
            // unknown opcode.
            for op in 1u8..=7 {
                let mut forced = body.clone();
                forced[0] = op;
                check_request(&forced)?;
            }
        }
    }

    #[test]
    fn response_decode_never_panics_on_arbitrary_bodies(
        body in bytes(256),
        (a, b) in (any::<u64>(), any::<u64>()),
    ) {
        for request in requests(a, b, &[0x41, 0x7A9]) {
            check_response(&body, &request)?;
            if !body.is_empty() {
                // Success (status 0), every error status, one unknown.
                for status in 0u8..=9 {
                    let mut forced = body.clone();
                    forced[0] = status;
                    check_response(&forced, &request)?;
                }
            }
        }
    }

    #[test]
    fn mutated_request_encodings_never_panic(
        (a, b) in (any::<u64>(), any::<u64>()),
        text in prop::collection::vec(0u32..0x800, 0..24),
        mask in 1u32..256,
        extension in prop::collection::vec(0u32..256, 1..9),
    ) {
        let extension: Vec<u8> = extension.into_iter().map(|b| b as u8).collect();
        let mut body = Vec::new();
        for request in requests(a, b, &text) {
            request.encode(&mut body);
            prop_assert_eq!(Request::decode(&body), Ok(request.clone()));
            for mutated in mutations(&body, mask as u8, &extension) {
                check_request(&mutated)?;
            }
        }
    }

    #[test]
    fn mutated_response_encodings_never_panic(
        (a, b) in (any::<u64>(), any::<u64>()),
        text in prop::collection::vec(0u32..0x800, 0..24),
        mask in 1u32..256,
        extension in prop::collection::vec(0u32..256, 1..9),
    ) {
        let extension: Vec<u8> = extension.into_iter().map(|b| b as u8).collect();
        let mut body = Vec::new();
        for request in requests(a, b, &text) {
            // Both a success and an error for every opcode.
            for b in [b & !1, b | 1] {
                response_to(&request, a, b, &text).encode(&mut body);
                check_response(&body, &request)?;
                prop_assert!(Response::decode(&body, &request).is_ok());
                for mutated in mutations(&body, mask as u8, &extension) {
                    check_response(&mutated, &request)?;
                }
            }
        }
    }
}
