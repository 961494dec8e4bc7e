//! # `simfs` — simulated filesystems
//!
//! Filesystem-level abstractions on top of the [`pagecache`] model and the
//! [`storage_model`] devices:
//!
//! * [`CachedFileSystem`] — a local filesystem whose I/O goes through the
//!   simulated Linux page cache (the paper's WRENCH-cache behaviour);
//! * [`DirectFileSystem`] — a local filesystem that always hits the disk
//!   (the cacheless behaviour of vanilla WRENCH, used as the baseline);
//! * [`NfsFileSystem`] / [`NfsServer`] — a network filesystem with a client
//!   read cache and a writethrough server cache (the paper's Exp 3 setup).
//!
//! The filesystems share no trait here: the `workflow` crate's `IoBackend`
//! dispatches over them (and over the kernel emulator and the cacheless NFS
//! mount), so that is the one surface that drives any of them with the same
//! code. Tenant caps reach the page cache of [`CachedFileSystem`] and the
//! client cache of [`NfsFileSystem`] through their [`pagecache::MemoryManager`],
//! which implements [`pagecache::GroupLimits`].

#![warn(missing_docs)]

mod error;
mod local;
mod nfs;
mod registry;

pub use error::FsError;
pub use local::{extend_for_write, CachedFileSystem, DirectFileSystem};
pub use nfs::{NfsFileSystem, NfsServer};
pub use registry::FileRegistry;
