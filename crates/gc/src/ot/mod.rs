//! Oblivious transfer: Chou–Orlandi base OTs over MODP groups, run once
//! per session and extended by IKNP to arbitrarily many precomputed
//! random OTs.

pub mod base;
pub mod bignum;
pub mod iknp;

pub use base::{base_ot_bytes, base_ot_receive, base_ot_send, OtGroup};
pub use iknp::{
    iknp_setup_bytes, rot_extension_bytes, rot_online_bytes, rot_receiver_offline,
    rot_sender_offline, IknpReceiver, IknpSender, RotReceiver, RotSender,
};
