#![warn(missing_docs)]

//! # fusion-ec
//!
//! Systematic erasure coding over GF(2^8), written for the Fusion
//! analytics object store (ASPLOS '25). One code type, [`ErasureCode`],
//! covers both codes the store runs: `(n, k, 0)` is Reed-Solomon
//! RS(n, k) and `(n, k, l)` with `l > 0` is the pyramid
//! locally-repairable code LRC(n, k, l), whose local parities make a
//! single-shard repair read `k/l` shards instead of `k`.
//!
//! Two properties distinguish this implementation from a generic RS
//! library, both required by Fusion's file-format-aware coding (FAC):
//!
//! 1. **Variable-length data blocks per stripe.** [`ErasureCode::encode`]
//!    accepts `k` blocks of different sizes; parity blocks take the size of
//!    the largest data block, and shorter blocks are treated as implicitly
//!    zero-padded (the padding is never stored). This is exactly the stripe
//!    model of the paper's Figure 2.
//! 2. **Systematic layout.** Data blocks are stored in plaintext, which is
//!    what makes in-situ computation pushdown on storage nodes possible.
//!
//! One decode routine backs both [`ErasureCode::reconstruct`] (every lost
//! shard) and [`ErasureCode::repair_one`] (one shard, from the sources
//! [`ErasureCode::repair_sources`] plans): it solves the lost shards'
//! generator rows over the present shards' rows, coefficients only, then
//! multiplies and accumulates straight from the present shards.
//!
//! The GF(2^8) inner loop is pluggable ([`codec::CodecKind`]): the default
//! [`codec::FastCodec`] multiplies through split-nibble tables with SIMD
//! byte-shuffle kernels ([`kernel`]), while [`codec::ScalarCodec`] keeps
//! the original log/exp path as a differential-testing reference. Stripe
//! fan-out for callers lives in [`pool::WorkerPool`].
//!
//! ## Quickstart
//!
//! ```
//! use fusion_ec::ErasureCode;
//!
//! let rs = ErasureCode::new(9, 6, 0)?;                  // the paper's default code
//! let blocks: Vec<Vec<u8>> = (0..6).map(|i| vec![i; 1024]).collect();
//! let parity = rs.encode(&blocks);
//!
//! let mut stripe: Vec<Option<Vec<u8>>> =
//!     blocks.into_iter().map(Some).chain(parity.into_iter().map(Some)).collect();
//! stripe[2] = None;                                     // lose a node
//! rs.reconstruct(&mut stripe, 1024)?;                   // bring it back
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod codec;
pub mod gf;
pub mod kernel;
pub mod lrc;
pub mod matrix;
pub mod pool;
pub mod rs;

pub use codec::{Codec, CodecKind, FastCodec, ScalarCodec};
pub use gf::Gf256;
pub use lrc::ErasureCode;
pub use matrix::Matrix;
pub use pool::WorkerPool;
pub use rs::{CodeParamsError, ReconstructError};
