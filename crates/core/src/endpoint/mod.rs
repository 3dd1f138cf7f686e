//! The capability-based endpoint layer.
//!
//! `splice(2)` moves data between *arbitrary pairs of I/O objects* (§5.1
//! of the paper lists files, sockets, and framebuffer/device endpoints).
//! Rather than hard-coding one engine per pair, the kernel resolves each
//! file descriptor **once**, at `sys_splice` time, into an endpoint
//! descriptor (`SrcEndpoint` / `DstEndpoint`) whose
//! [capabilities](EndpointCaps) say how it can participate:
//!
//! | object       | block src | stream src | block sink | stream sink | EOF |
//! |--------------|-----------|------------|------------|-------------|-----|
//! | regular file | yes       | —          | yes¹       | yes (append)| yes |
//! | UDP socket   | —         | yes        | —          | yes         | —   |
//! | framebuffer  | —         | yes        | —          | —           | —   |
//! | audio/video  | —         | —          | —          | yes         | —   |
//!
//! ¹ block-sink sharing needs block-aligned offsets on both sides;
//!   unaligned file sinks fall back on rejection (`EINVAL`), matching the
//!   paper's whole-block sharing constraint.
//!
//! A **block source** yields a physical block table up front
//! (`ReadPlan::Mapped`, the §5.2 `bmap` walk) and is read with
//! `bread_call`; a **stream source** is pulled chunk-by-chunk
//! (`ReadPlan::Stream`). Either way every arriving [`Block`] flows
//! through the same engine loop in [`crate::splice_engine`]: the same
//! pending-read/pending-write gauges, the same §5.2.3 watermark flow
//! control, the same `SpliceSpan` lifecycle instrumentation.
//!
//! The per-backend glue lives in the submodules: [`file`] (kfs block
//! tables, shared-header writes, the append path), `sock` (knet
//! datagram pulls and sends), and `dev` (kdev framebuffer pulls and
//! paced DAC delivery).

use kbuf::BufId;
use kfs::Ino;
use knet::SockId;
use kproc::Errno;

use crate::kernel::Kernel;
use crate::objects::{CharDev, FileObj};

pub(crate) mod dev;
pub(crate) mod file;
pub(crate) mod sock;

pub(crate) use sock::ParkedSend;

/// What a spliceable object can do, decided purely by its class.
///
/// The table is total: every `FileObj` maps to one row, and `sys_splice`
/// derives accept/reject decisions from it (plus per-call state such as
/// socket connectedness and offset alignment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EndpointCaps {
    /// Can head a splice as a block-table source (`bmap` + `bread_call`).
    pub block_source: bool,
    /// Can head a splice as a pulled byte/datagram stream.
    pub stream_source: bool,
    /// Can terminate a splice with whole-block shared-header writes.
    pub block_sink: bool,
    /// Can terminate a splice by accepting byte chunks (append, paced
    /// device delivery, datagram sends).
    pub stream_sink: bool,
    /// Has a resolvable end-of-file, so `SpliceLen::Eof` is meaningful.
    pub has_eof: bool,
}

impl EndpointCaps {
    /// True if the object can be the source of any splice.
    pub fn source(&self) -> bool {
        self.block_source || self.stream_source
    }

    /// True if the object can be the sink of any splice.
    pub fn sink(&self) -> bool {
        self.block_sink || self.stream_sink
    }
}

/// Object classes distinguishable at `sys_splice` time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjClass {
    /// A regular file on a block device.
    File,
    /// A UDP socket.
    Sock,
    /// The framebuffer character device.
    Fb,
    /// The audio DAC character device.
    Audio,
    /// The video DAC character device.
    Video,
}

/// The capability table (see the module docs for the rendered form).
pub fn caps(class: ObjClass) -> EndpointCaps {
    match class {
        ObjClass::File => EndpointCaps {
            block_source: true,
            stream_source: false,
            block_sink: true,
            stream_sink: true,
            has_eof: true,
        },
        ObjClass::Sock => EndpointCaps {
            block_source: false,
            stream_source: true,
            block_sink: false,
            stream_sink: true,
            has_eof: false,
        },
        ObjClass::Fb => EndpointCaps {
            block_source: false,
            stream_source: true,
            block_sink: false,
            stream_sink: false,
            has_eof: false,
        },
        ObjClass::Audio | ObjClass::Video => EndpointCaps {
            block_source: false,
            stream_source: false,
            block_sink: false,
            stream_sink: true,
            has_eof: false,
        },
    }
}

/// A resolved splice source.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SrcEndpoint {
    /// A regular file: block-table-driven reads.
    File { disk: usize, ino: Ino },
    /// The framebuffer: pulled frame-data chunks.
    Fb { cdev: usize },
    /// A UDP socket: pulled datagrams.
    Sock { sock: SockId },
}

/// A resolved splice sink.
#[derive(Clone, Copy, Debug)]
pub(crate) enum DstEndpoint {
    /// A regular file: shared-header block writes or byte appends.
    File { disk: usize, ino: Ino },
    /// A character device (audio/video DAC): paced delivery.
    Dev { cdev: usize },
    /// A UDP socket: datagram sends.
    Sock { sock: SockId },
}

/// How the source side of a splice is driven.
#[derive(Clone, Debug)]
pub(crate) enum ReadPlan {
    /// Block-table source (§5.2): the full physical block list, obtained
    /// by successive `bmap` calls at descriptor-build time.
    Mapped {
        /// Physical source block per logical splice block.
        src_map: Vec<u64>,
        /// Bytes of each splice block that belong to the transfer.
        src_lens: Vec<usize>,
        /// Offset of the transfer within the first block.
        first_boff: usize,
    },
    /// Stream source: pulled in chunks of at most `chunk` bytes, one
    /// in-kernel pull per pending-read slot.
    Stream {
        /// Pull granularity (a datagram never splits; a framebuffer read
        /// yields exactly this many bytes).
        chunk: usize,
    },
}

/// One unit of spliced data travelling from a source to a sink.
///
/// Block sources deliver held cache buffers (whose data area the file
/// sink's shared-header write aliases — the §5.2.2 no-copy path); stream
/// sources deliver owned byte chunks. Every sink accepts both.
#[derive(Debug)]
pub enum Block {
    /// A held buffer-cache block (block sources).
    Buf(BufId),
    /// An owned byte chunk (stream sources).
    Bytes(Vec<u8>),
}

impl Kernel {
    /// Classifies an open object for the capability table.
    pub(crate) fn obj_class(&self, obj: FileObj) -> ObjClass {
        match obj {
            FileObj::File { .. } => ObjClass::File,
            FileObj::Sock { .. } => ObjClass::Sock,
            FileObj::Chr { cdev } => match self.cdevs[cdev].dev {
                CharDev::Fb(_) => ObjClass::Fb,
                CharDev::Audio(_) => ObjClass::Audio,
                CharDev::Video(_) => ObjClass::Video,
            },
        }
    }

    /// Resolves a source endpoint, or the documented rejection:
    /// `ENOTSUP` for objects without source capability.
    pub(crate) fn resolve_src(&self, obj: FileObj) -> Result<SrcEndpoint, Errno> {
        if !caps(self.obj_class(obj)).source() {
            return Err(Errno::Enotsup);
        }
        Ok(match obj {
            FileObj::File { disk, ino } => SrcEndpoint::File { disk, ino },
            FileObj::Chr { cdev } => SrcEndpoint::Fb { cdev },
            FileObj::Sock { sock } => SrcEndpoint::Sock { sock },
        })
    }

    /// Resolves a sink endpoint, or the documented rejection: `ENOTSUP`
    /// for objects without sink capability, `ENOTCONN` for an
    /// unconnected socket.
    pub(crate) fn resolve_dst(&self, obj: FileObj) -> Result<DstEndpoint, Errno> {
        if !caps(self.obj_class(obj)).sink() {
            return Err(Errno::Enotsup);
        }
        Ok(match obj {
            FileObj::File { disk, ino } => DstEndpoint::File { disk, ino },
            FileObj::Chr { cdev } => DstEndpoint::Dev { cdev },
            FileObj::Sock { sock } => {
                if self.net.peer(sock).is_none() {
                    return Err(Errno::Enotconn);
                }
                DstEndpoint::Sock { sock }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_table_shape() {
        assert!(caps(ObjClass::File).block_source);
        assert!(caps(ObjClass::File).has_eof);
        assert!(caps(ObjClass::Sock).stream_source && caps(ObjClass::Sock).stream_sink);
        assert!(!caps(ObjClass::Sock).has_eof);
        assert!(caps(ObjClass::Fb).stream_source && !caps(ObjClass::Fb).sink());
        assert!(!caps(ObjClass::Audio).source() && caps(ObjClass::Audio).stream_sink);
        assert!(!caps(ObjClass::Video).source() && caps(ObjClass::Video).stream_sink);
    }
}
