//! # saint-ir — the Dalvik-like IR substrate
//!
//! The SAINTDroid paper (DSN 2022) analyzes Android APKs: Dalvik
//! bytecode plus a manifest. This crate provides the offline-Rust
//! equivalent: a register-based intermediate representation shaped like
//! the slice of Dalvik that compatibility analysis consumes, a manifest
//! model, an APK container with late-bound secondary dex payloads, a
//! binary on-disk format ([`codec`]), and fluent builders used by
//! the framework generator and the benchmark corpus.
//!
//! ## Quick tour
//!
//! ```
//! use saint_ir::{ApkBuilder, ApiLevel, BodyBuilder, ClassBuilder, ClassOrigin, MethodRef};
//!
//! // An Activity that calls an API inside an SDK_INT guard:
//! let main = ClassBuilder::new("com.example.Main", ClassOrigin::App)
//!     .extends("android.app.Activity")
//!     .method("onCreate", "(Landroid/os/Bundle;)V", |b: &mut BodyBuilder| {
//!         let (then_blk, join) = b.guard_sdk_at_least(ApiLevel::new(23));
//!         b.switch_to(then_blk);
//!         b.invoke_virtual(
//!             MethodRef::new("android.content.Context", "getColorStateList", "(I)V"),
//!             &[],
//!             None,
//!         );
//!         b.goto(join);
//!         b.switch_to(join);
//!         b.ret_void();
//!     })?
//!     .build();
//!
//! let apk = ApkBuilder::new("com.example", ApiLevel::new(21), ApiLevel::new(28))
//!     .activity("com.example.Main")
//!     .class(main)?
//!     .build();
//!
//! // Serialize and parse back, as the analysis front-end does:
//! let bytes = saint_ir::codec::encode_apk(&apk);
//! let parsed = saint_ir::codec::decode_apk(&bytes)?;
//! assert_eq!(apk, parsed);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod apk;
mod body;
mod builder;
mod class;
pub mod codec;
mod error;
mod fnv;
mod instr;
pub mod intern;
mod level;
mod manifest;
mod name;

pub use apk::{Apk, DexFile};
pub use body::{BasicBlock, BlockId, MethodBody, Terminator};
pub use builder::{ApkBuilder, BodyBuilder, ClassBuilder};
pub use class::{ClassDef, ClassOrigin, FieldDef, MethodDef, MethodFlags};
pub use error::{CodecError, IrError};
pub use fnv::{fnv1a, FNV_OFFSET};
pub use instr::{BinOp, Cond, Instr, InvokeKind, Operand, Reg};
pub use intern::{intern, intern_stats, InternStats};
pub use level::{ApiLevel, LevelRange};
pub use manifest::{Component, ComponentKind, Manifest};
pub use name::{ClassName, FieldRef, MethodRef, MethodSig, Permission};
