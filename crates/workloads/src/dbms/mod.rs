//! A miniature in-memory storage engine and the two OLTP workloads the
//! paper runs on its DBMS \[38\]: YCSB \[5\] and TPCC \[33\].
//!
//! Unlike the synthetic kernels, these traces come from *real executing
//! data structures*: a record heap, an open-addressing hash index and a
//! B-tree ([`engine`], [`btree`]) instrumented so that every probe,
//! record read and append emits its actual byte address. The YCSB-like
//! driver ([`ycsb`]) issues Zipfian point reads/updates; the TPCC-like
//! driver ([`tpcc`]) runs NewOrder/Payment-style transactions over
//! warehouse/district/customer/stock/item/order-line tables.

pub mod btree;
pub mod engine;
pub mod tpcc;
pub mod ycsb;

pub use btree::BTree;
pub use engine::{Arena, HashIndex, Table, TraceSink};
pub use tpcc::Tpcc;
pub use ycsb::Ycsb;
