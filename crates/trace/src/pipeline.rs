//! Two-thread streaming: the producer (the simulator) keeps the calling
//! thread and a single scoped worker thread folds what it produces.
//!
//! The simulator stays on the caller because its engine reuses a
//! thread-local scratch arena from run to run; a fresh thread would
//! allocate that arena anew on every run. The folds own nothing
//! thread-bound, so they are the half that moves.
//!
//! Frames travel through a bounded channel as recycled `Vec<Event>`
//! buffers: at most [`FRAMES_QUEUED`] frames wait in the channel, one
//! more is being folded and one more is being handed over, so the
//! pipeline holds at most four frames beside the one the engine fills.

use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::time::{Duration, Instant};

use crate::{Event, TraceError, TraceSink};

/// Frames that may wait in the channel for the worker.
const FRAMES_QUEUED: usize = 2;

/// How long the worker polls an empty channel, yielding its CPU between
/// polls, before it blocks. The simulator retires a 4096-event frame
/// about every 0.35 ms at 64k ranks. A worker that sleeps between
/// frames is woken for each one, and the scheduler may then queue it
/// behind the simulator on one CPU for the rest of the run: a one-shot
/// `simulate --stream-reduce` took ~1500 involuntary context switches
/// and no overlap in many runs. Polling keeps the worker awake on a CPU
/// of its own; with one CPU, each yield hands it back to the simulator.
const POLL: Duration = Duration::from_millis(1);

/// What the producer tells the worker, in stream order.
enum Msg {
    Begin(usize, Vec<String>),
    Events(Vec<Event>),
    Finish,
}

/// The producer's end: a [`TraceSink`] that hands every call to the
/// worker. A send fails only once the worker has stopped — after an
/// error of its own or a panic — which the engine latches and turns
/// into an abort at the next round boundary.
struct Feed {
    tx: SyncSender<Msg>,
    spare: Receiver<Vec<Event>>,
}

impl Feed {
    fn send(&self, msg: Msg) -> Result<(), TraceError> {
        self.tx.send(msg).map_err(|_| TraceError::Malformed {
            detail: "the fold thread stopped".into(),
        })
    }
}

impl TraceSink for Feed {
    fn begin(&mut self, processors: usize, region_names: &[String]) -> Result<(), TraceError> {
        self.send(Msg::Begin(processors, region_names.to_vec()))
    }

    fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
        let mut frame = self.spare.try_recv().unwrap_or_default();
        frame.extend_from_slice(events);
        self.send(Msg::Events(frame))
    }

    fn finish(&mut self) -> Result<(), TraceError> {
        self.send(Msg::Finish)
    }
}

/// Runs `produce` on the calling thread with a sink whose stream
/// `consumer` folds on one scoped worker thread, and returns what
/// `produce` returned.
///
/// The consumer sees exactly the calls the producer made, in order.
/// After its first error it is handed nothing more and the worker
/// stops; the producer's next call on its sink then fails, and a
/// simulation aborts at its next round boundary. Every frame the
/// producer handed over before it returned is folded, whether it
/// returned an error or not.
///
/// # Precedence
///
/// A consumer error wins: when the consumer failed, its own error is
/// returned whatever `produce` returned — the producer's error is then
/// at most the consumer having stopped, or a failure the producer ran
/// into while the consumer's error was still on its way. Deciding for
/// the consumer makes the outcome independent of how far the producer
/// ran ahead: the consumer fails on the same frame either way. (A
/// simulation feeding its folds on its own thread checks them only at
/// round boundaries, so where both fail within one round it reports its
/// own error instead.)
///
/// # Errors
///
/// The consumer's first error.
///
/// # Panics
///
/// A panic on the worker is re-raised on the calling thread once
/// `produce` returns: the producer's next call on its sink fails, and
/// a simulation then stops at its next round boundary.
pub fn pipelined<R>(
    consumer: &mut (dyn TraceSink + Send),
    produce: impl FnOnce(&mut dyn TraceSink) -> R,
) -> Result<R, TraceError> {
    let (tx, rx) = mpsc::sync_channel(FRAMES_QUEUED);
    let (recycle, spare) = mpsc::channel();
    std::thread::scope(|scope| {
        let worker = scope.spawn(move || fold(consumer, &rx, &recycle));
        let mut feed = Feed { tx, spare };
        let produced = produce(&mut feed);
        // Closing the channel lets the worker fold what is queued and
        // stop, also when `produce` failed before finishing the stream.
        drop(feed);
        match worker.join() {
            Ok(folded) => folded.map(|()| produced),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// The worker: feeds `consumer` until the stream finishes, the channel
/// closes, or the consumer fails. Folded frames go back for reuse.
fn fold(
    consumer: &mut (dyn TraceSink + Send),
    rx: &Receiver<Msg>,
    recycle: &mpsc::Sender<Vec<Event>>,
) -> Result<(), TraceError> {
    while let Some(msg) = next(rx) {
        match msg {
            Msg::Begin(processors, names) => consumer.begin(processors, &names)?,
            Msg::Events(mut frame) => {
                consumer.events(&frame)?;
                frame.clear();
                // The producer may be gone already; the frame is then
                // simply dropped.
                let _ = recycle.send(frame);
            }
            Msg::Finish => return consumer.finish(),
        }
    }
    Ok(())
}

/// The next message, or `None` once the producer is gone and nothing
/// is queued: polled for up to [`POLL`], then waited for.
fn next(rx: &Receiver<Msg>) -> Option<Msg> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() < POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
    }
}
