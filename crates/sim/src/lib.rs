//! # `mcdla-sim` — discrete-event simulation kernel
//!
//! The simulation substrate underneath the MC-DLA system simulator
//! (Kwon & Rhu, *Beyond the Memory Wall*, MICRO-51 2018). It provides the
//! same modeling abstractions the paper's in-house simulator describes in
//! §IV:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-picosecond clock, so event
//!   ordering is exact and runs are reproducible.
//! * [`FifoEngine`] — a serialized hardware stream (PE array, DMA unit,
//!   protocol/communication engine) that accumulates the busy time stacked
//!   in the paper's Figure 11.
//! * [`FlowNetwork`] — a max-min-fair fluid-flow bandwidth model for shared
//!   channels (ring links, switch ports, host-PCIe escape channels), giving
//!   contention effects without packet-level simulation.
//! * [`stats`] — harmonic means and normalization helpers used throughout
//!   the evaluation (§V reports all averages as harmonic means).
//!
//! # Examples
//!
//! Modeling the paper's observation that host-side PCIe bandwidth is divided
//! among intra-node devices:
//!
//! ```
//! use mcdla_sim::{Bandwidth, Bytes, FlowNetwork};
//!
//! let mut net = FlowNetwork::new();
//! let socket = net.add_channel(Bandwidth::gb_per_sec(80.0));
//! // Four devices offloading feature maps concurrently through one socket.
//! let rates = net.rates(&[&[socket][..]; 4]);
//! // Each device only sees a quarter of the socket bandwidth...
//! assert!((rates[0].as_gb_per_sec() - 20.0).abs() < 1e-9);
//! // ...so 20 GB each takes a second.
//! let done = net.drain(&[(&[socket][..], Bytes::from_gb(20)); 4]).unwrap();
//! assert!((done[3].as_secs_f64() - 1.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod flow;
pub mod stats;
mod time;
mod units;

pub use engine::{Completion, FifoEngine};
pub use flow::{ChannelId, FlowNetwork};
pub use time::{SimDuration, SimTime};
pub use units::{Bandwidth, Bytes};
