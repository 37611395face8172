//! Decode fuzzing of the frame layer: random bytes, truncated frames and
//! length bombs (a header claiming far more body than follows) fed to
//! [`read_frame`] and to [`FramedStream::recv`] over a real socket.
//!
//! * No input panics, and every input ends in an `Err` once the bytes run
//!   out.
//! * A truncated frame or a length bomb is an `Err`, never a message.
//! * A lying length prefix costs no allocation beyond one read chunk: the
//!   binary counts the largest allocation request, so the 256 MiB claims
//!   below would show if the body were allocated up front.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};

use comdml_net::frame::{read_frame, write_frame};
use comdml_net::{FramedStream, Message, NetError};
use proptest::prelude::*;

/// The system allocator, recording the largest request it serves.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter update, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// No test in this binary asks for a buffer this large on honest input.
const ALLOCATION_BOUND: usize = 1 << 20;

/// The length prefix `read_frame` still accepts (`MAX_FRAME`, 256 MiB).
const MAX_CLAIM: u32 = 256 * 1024 * 1024;

fn sample_messages() -> Vec<Message> {
    vec![
        Message::Version { proto: 2 },
        Message::Hello { agent_id: 7 },
        Message::SubmitSweep { spec_json: "{\"name\":\"fuzz\"}".into() },
        Message::WorkSlice {
            sweep_id: 1,
            slice_id: 2,
            spec_json: "{\"name\":\"fuzz\"}".into(),
            indices: vec![1, 2, 3],
        },
        Message::FarmError { detail: "unknown sweep 9".into() },
        Message::Activations { batch_idx: 0, data: vec![0.5; 64], labels: vec![1; 8] },
    ]
}

fn frame_of(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, msg.kind(), &msg.encode_body()).unwrap();
    buf
}

/// Every frame `read_frame` can take from `bytes`, until the first error.
/// Returns how many decoded; the loop must end in an error.
fn drain_slice(bytes: &[u8]) -> usize {
    let mut rest = bytes;
    let mut frames = 0;
    while read_frame(&mut rest).is_ok() {
        frames += 1;
        assert!(frames <= bytes.len(), "read_frame made no progress");
    }
    frames
}

/// Sends `bytes` over a fresh loopback connection, half-closes it, and
/// drains the receiving end with `FramedStream::recv` until it errors.
/// Returns how many messages decoded before the error.
fn drain_socket(bytes: &[u8]) -> usize {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut sender = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let mut receiver = FramedStream::new(listener.accept().unwrap().0);
    sender.write_all(bytes).unwrap();
    sender.shutdown(Shutdown::Write).unwrap();
    let mut messages = 0;
    while receiver.recv().is_ok() {
        messages += 1;
        assert!(messages <= bytes.len(), "recv made no progress");
    }
    messages
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_end_in_an_error_without_panicking(
        bytes in prop::collection::vec(0u8..=255, 0..96),
    ) {
        drain_slice(&bytes);
        drain_socket(&bytes);
    }

    #[test]
    fn truncated_frames_are_errors(pick in 0usize..6, cut in 0.0f64..1.0) {
        let frame = frame_of(&sample_messages()[pick]);
        let cut = (cut * frame.len() as f64) as usize; // < frame.len()
        prop_assert!(read_frame(&mut &frame[..cut]).is_err(), "cut at {}", cut);
        prop_assert_eq!(drain_socket(&frame[..cut]), 0);
    }

    #[test]
    fn length_bombs_are_errors(
        claim in 0u32..=MAX_CLAIM,
        kind in 0u16..=u16::MAX,
        body in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // Claim at least one byte more than follows the header.
        let claim = claim.max(body.len() as u32 + 3);
        let mut bytes = claim.to_le_bytes().to_vec();
        bytes.extend_from_slice(&kind.to_le_bytes());
        bytes.extend_from_slice(&body);
        prop_assert!(read_frame(&mut bytes.as_slice()).is_err());
        prop_assert_eq!(drain_socket(&bytes), 0);
    }
}

#[test]
fn a_full_size_claim_allocates_one_chunk_not_the_claim() {
    for claim in [MAX_CLAIM, MAX_CLAIM - 1, MAX_CLAIM / 2] {
        let mut bytes = claim.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[5, 0, 1, 2, 3]);
        assert!(matches!(read_frame(&mut bytes.as_slice()), Err(NetError::Io(_))));
        assert_eq!(drain_socket(&bytes), 0);
    }
    let oversized = (MAX_CLAIM + 1).to_le_bytes();
    assert!(matches!(read_frame(&mut oversized.as_slice()), Err(NetError::FrameTooLarge(_))));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest < ALLOCATION_BOUND, "a lying length prefix allocated {largest} bytes");
}

#[test]
fn whole_frames_still_decode_before_the_error() {
    let messages = sample_messages();
    let mut stream: Vec<u8> = messages.iter().flat_map(frame_of).collect();
    stream.extend_from_slice(&[9, 0]); // a torn next prefix
    assert_eq!(drain_slice(&stream), messages.len());
    assert_eq!(drain_socket(&stream), messages.len());
}
