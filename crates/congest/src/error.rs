//! Error types for the network simulator.

use std::error::Error;
use std::fmt;

use crate::node::NodeId;

/// Errors raised by the CONGEST-CLIQUE simulator.
///
/// The addressing variants ([`CongestError::UnknownNode`],
/// [`CongestError::LoadExceeded`], [`CongestError::EmptyNetwork`]) indicate
/// *programming errors in the simulated algorithm*. By default the model
/// assumes reliable links, but when a [`crate::FaultPlan`] is active the
/// runtime-fault variants ([`CongestError::DeliveryFailed`],
/// [`CongestError::MessagesLost`], [`CongestError::NodeCrashed`]) report
/// injected faults that the reliable-delivery envelope could not mask, or
/// that no envelope was there to mask.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CongestError {
    /// A message referenced a node outside `0..n`.
    UnknownNode {
        /// The offending node id.
        node: NodeId,
        /// The network size.
        n: usize,
    },
    /// A routing request exceeded the declared per-node load bound.
    LoadExceeded {
        /// The overloaded node.
        node: NodeId,
        /// Number of message units at that node.
        load: u64,
        /// Declared bound.
        bound: u64,
    },
    /// The network was constructed with zero nodes.
    EmptyNetwork,
    /// The reliable-delivery envelope exhausted its retry budget with
    /// messages still undelivered.
    DeliveryFailed {
        /// Label of the accounting phase that was active.
        phase: String,
        /// Messages still undelivered when the budget ran out.
        undelivered: u64,
        /// Delivery waves attempted (initial send plus retransmits).
        attempts: u32,
    },
    /// Messages went missing on a faulty network that runs without the
    /// reliable-delivery envelope, so nothing retransmitted them.
    MessagesLost {
        /// Label of the accounting phase that was active.
        phase: String,
        /// Messages (or the values they carried) that never arrived.
        lost: u64,
    },
    /// A fail-stopped node made delivery impossible.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// Label of the accounting phase that was active.
        phase: String,
    },
    /// A transport was asked to run over a disconnected topology: some
    /// nodes can never hear from the rest, so collective operations are
    /// impossible by construction (not a runtime fault — rejected before
    /// any round is charged).
    Partitioned {
        /// Nodes reachable from node 0.
        reachable: usize,
        /// The network size.
        n: usize,
    },
    /// A coded-gossip collective exhausted its round budget with nodes
    /// still unable to decode the block (injected losses outran the
    /// coding redundancy).
    DecodeFailed {
        /// Label of the accounting phase that was active.
        phase: String,
        /// Nodes still short of full decoding rank.
        undecoded: usize,
        /// Rounds charged before giving up.
        rounds: u64,
    },
}

impl fmt::Display for CongestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CongestError::UnknownNode { node, n } => {
                write!(f, "message references {node} but the network has {n} nodes")
            }
            CongestError::LoadExceeded { node, load, bound } => {
                write!(
                    f,
                    "{node} carries {load} message units, exceeding bound {bound}"
                )
            }
            CongestError::EmptyNetwork => write!(f, "network must contain at least one node"),
            CongestError::DeliveryFailed {
                phase,
                undelivered,
                attempts,
            } => {
                write!(
                    f,
                    "reliable delivery failed in phase {phase:?}: {undelivered} messages \
                     undelivered after {attempts} attempts"
                )
            }
            CongestError::MessagesLost { phase, lost } => {
                write!(
                    f,
                    "{lost} message(s) lost in phase {phase:?} without the reliable envelope"
                )
            }
            CongestError::NodeCrashed { node, phase } => {
                write!(f, "{node} crashed during phase {phase:?}")
            }
            CongestError::Partitioned { reachable, n } => {
                write!(
                    f,
                    "topology is disconnected: only {reachable} of {n} nodes \
                     reachable from node 0"
                )
            }
            CongestError::DecodeFailed {
                phase,
                undecoded,
                rounds,
            } => {
                write!(
                    f,
                    "coded gossip failed in phase {phase:?}: {undecoded} node(s) \
                     could not decode after {rounds} rounds"
                )
            }
        }
    }
}

impl Error for CongestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CongestError::UnknownNode {
            node: NodeId::new(9),
            n: 4,
        };
        assert!(e.to_string().contains("node9"));
        assert!(e.to_string().contains('4'));
    }

    #[test]
    fn fault_variants_name_the_phase() {
        let e = CongestError::DeliveryFailed {
            phase: "semiring/distribute".into(),
            undelivered: 3,
            attempts: 9,
        };
        let text = e.to_string();
        assert!(text.contains("semiring/distribute"), "{text}");
        assert!(text.contains('3') && text.contains('9'), "{text}");
        let e = CongestError::NodeCrashed {
            node: NodeId::new(2),
            phase: "step3".into(),
        };
        assert!(e.to_string().contains("node2"));
        assert!(e.to_string().contains("step3"));
    }

    #[test]
    fn transport_variants_are_informative() {
        let e = CongestError::Partitioned { reachable: 3, n: 8 };
        let text = e.to_string();
        assert!(text.contains('3') && text.contains('8'), "{text}");
        assert!(text.contains("disconnected"), "{text}");
        let e = CongestError::DecodeFailed {
            phase: "gossip/src2".into(),
            undecoded: 2,
            rounds: 41,
        };
        let text = e.to_string();
        assert!(text.contains("gossip/src2"), "{text}");
        assert!(text.contains('2') && text.contains("41"), "{text}");
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CongestError>();
    }
}
