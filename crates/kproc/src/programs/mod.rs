//! The user programs the experiments run.
//!
//! Each program is a [`crate::Program`] state machine written purely in
//! terms of system calls, mirroring the C programs of the paper's §4 and
//! §6:
//!
//! * [`CpuBound`] — the availability test program: a fixed number of
//!   fixed-cost operations (§6.2).
//! * [`Cp`] — `cp`: a read/write copy loop through a user buffer, with
//!   `fsync` on the destination (§6.1's CP environment).
//! * [`Scp`] — `scp`: the splice-based copy, synchronous or
//!   `FASYNC`+`SIGIO` (§6.1's SCP environment).
//! * [`MoviePlayer`] — the §4 example: async audio splice plus
//!   interval-timer-paced video frame splices.
//! * [`net`] — UDP senders/sinks and the two relay variants
//!   (read/write vs splice) for the socket-to-socket data path (§5.1).
//! * [`server`] — the connection-scale scenario: a listening
//!   [`SpliceServer`] (`splice(2)` or cp-relay mode) serving
//!   one file per connection to an open-loop load drawn by
//!   [`open_loop_delays`]. The load itself is no program: the kernel's
//!   traffic source offers it from the link, on no simulated CPU.
//! * [`Writer`] — creates files through the normal write path (exercises
//!   allocation + delayed writes).
//! * [`EndpointPair`] — a generic splice driver between any two endpoint
//!   specs; the endpoint-matrix tests and bench are built on it.

pub mod cp;
pub mod cpubound;
pub mod endpoint;
pub mod movie;
pub mod net;
pub mod repeat;
pub mod scp;
pub mod server;
pub mod util;
pub mod writer;

pub use cp::Cp;
pub use cpubound::CpuBound;
pub use endpoint::{EndSpec, EndpointPair};
pub use movie::MoviePlayer;
pub use net::{UdpRelayRw, UdpRelaySplice, UdpSink, UdpSource};
pub use repeat::Repeat;
pub use scp::{Scp, ScpMode};
pub use server::{
    open_loop_delays, scenario_stats, ScenarioStats, ServeMode, SharedScenario, SpliceServer,
};
pub use writer::Writer;
