//! Oblivious transfer: Chou–Orlandi base OTs over MODP groups, extended
//! by IKNP to arbitrarily many precomputed random OTs.

pub mod base;
pub mod bignum;
pub mod iknp;

pub use base::{base_ot_bytes, base_ot_receive, base_ot_send, OtGroup};
pub use iknp::{
    rot_offline_bytes, rot_online_bytes, rot_receiver_offline, rot_sender_offline, RotReceiver,
    RotSender,
};
