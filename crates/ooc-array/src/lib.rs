//! # ooc-array — the out-of-core array runtime
//!
//! Implements the data model of the paper's §2 and §3.3:
//!
//! * a **global array** is partitioned by an HPF-style [`Distribution`]
//!   (block / cyclic / block-cyclic per dimension over a processor grid)
//!   into **out-of-core local arrays** (OCLAs), one per processor;
//! * each OCLA lives in a **Local Array File** on the owning processor's
//!   logical disk, in the element order of a [`FileLayout`] the compiler
//!   may choose (this is the paper's "reorganizing data storage on disks");
//! * computation runs over **in-core local arrays** (ICLAs): memory-sized
//!   **slabs** of the OCLA produced by a [`SlabPlan`] along a chosen
//!   dimension (column slabs vs row slabs in the paper's Figure 11).
//!
//! Index conventions: 0-based, Fortran column-major linearization (dimension
//! 0 varies fastest). The paper's `a(n,n)` is `shape [n, n]` with dimension 0
//! the row index; "column-block" distribution distributes dimension 1.

mod dims;
pub mod dist;
pub mod error;
pub mod irreg;
pub mod layout;
pub mod localize;
pub mod ocla;
pub mod persist;
pub mod redist;
pub mod section;
pub mod shape;
pub mod slab;

pub use dist::{DimDist, DistKind, Distribution, ProcGrid};
pub use error::OocError;
pub use irreg::{gather_with, inspect, IrregSchedule, IrregStats, ScheduleStamp};
pub use layout::FileLayout;
pub use localize::{
    global_section_of_local, global_to_local, local_part, local_section_of_global, local_to_global,
    owner_of,
};
pub use ocla::{ArrayDesc, ArrayId, OocEnv};
pub use persist::{
    checkpoint_file, checkpoint_section, export_array, import_array, remove_checkpoint,
    restore_checkpoint,
};
pub use redist::{
    redistribute, redistribute_with, relayout_in_place, remap, Redistribution, RemapStage,
    RemapStages,
};
pub use section::{DimRange, Section};
pub use shape::Shape;
pub use slab::SlabPlan;
