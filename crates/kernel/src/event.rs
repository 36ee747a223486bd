//! The OpenCL-style event model (paper §3.4).
//!
//! Every scheduled device operation — a kernel invocation or a host/device
//! transfer — is associated with an [`EventId`]. Operations take a wait-list
//! of events that must have completed before they may run; the Memory
//! Manager in `ocelot-core` keeps *producer* events (operations writing a
//! buffer) and *consumer* events (operations reading it) per buffer and uses
//! them to build those wait-lists, which is what lets Ocelot schedule work
//! lazily and leave reordering freedom to the driver.
//!
//! A queue issues ids `1, 2, 3, …` and runs its operations in that order,
//! one batch at a time, so the events that have completed are always a
//! prefix of the issued ones. A queue therefore keeps no record per event:
//! two counters, the last issued id and the completion watermark, answer
//! whether an id was issued and whether it has completed
//! ([`crate::Queue::is_complete`]). A batch a lost device drops never
//! completes, and since device loss is sticky no later batch runs to move
//! the watermark past it.

/// Identifier of a scheduled device operation. Ids start at 1; a queue
/// never issues 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u64);
