//! Property tests: the filesystem against a flat reference model, with
//! `fsck` and remount as oracles after every generated operation
//! sequence.

// Compiled only with `cargo test --features props` (hermetic default
// builds skip the property suites).
#![cfg(feature = "props")]

use std::collections::HashMap;

use proptest::prelude::*;

use kfs::{fsck, Fs, FsError};
use khw::SparseStore;

#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Unlink(u8),
    Write { name: u8, off: u16, len: u16 },
    Truncate(u8),
    Mkdir(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..12).prop_map(Op::Create),
        1 => (0u8..12).prop_map(Op::Unlink),
        4 => ((0u8..12), any::<u16>(), (1u16..20_000)).prop_map(|(name, off, len)| Op::Write {
            name,
            off,
            len
        }),
        1 => (0u8..12).prop_map(Op::Truncate),
        1 => (12u8..16).prop_map(Op::Mkdir),
    ]
}

fn name_of(n: u8) -> String {
    format!("/f{n}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_ops_match_model_and_fsck_clean(ops in prop::collection::vec(op(), 1..60)) {
        let mut store = SparseStore::new(24 * 1024 * 1024, 8192);
        let mut fs = Fs::mkfs(&mut store, 8192, 64);
        // Reference model: path → contents.
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();

        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Create(n) => {
                    let path = name_of(*n);
                    let res = fs.create(&path);
                    if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(path) {
                        if res.is_ok() {
                            slot.insert(Vec::new());
                        }
                    } else {
                        prop_assert_eq!(res.err(), Some(FsError::Exists));
                    }
                    // (NoSpace on inode exhaustion is legal and leaves the
                    // model untouched.)
                }
                Op::Unlink(n) => {
                    let path = name_of(*n);
                    let res = fs.unlink(&path);
                    if model.remove(&path).is_some() {
                        prop_assert!(res.is_ok(), "unlink of existing file failed at op {}", i);
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
                Op::Write { name, off, len } => {
                    let path = name_of(*name);
                    if let Some(contents) = model.get_mut(&path) {
                        let ino = fs.lookup(&path).unwrap();
                        let data: Vec<u8> =
                            (0..*len).map(|j| (j as u64 * 31 + *off as u64) as u8).collect();
                        match fs.write_direct(&mut store, ino, *off as u64, &data) {
                            Ok(()) => {
                                let end = *off as usize + data.len();
                                if contents.len() < end {
                                    contents.resize(end, 0);
                                }
                                contents[*off as usize..end].copy_from_slice(&data);
                            }
                            Err(FsError::NoSpace) => {
                                // Partial allocation is possible; resync the
                                // model from the filesystem (the oracle for
                                // sizes is fsck + remount below).
                                let size = fs.size(ino) as usize;
                                let data = fs.read_direct(&store, ino, 0, size);
                                *contents = data;
                            }
                            Err(e) => prop_assert!(false, "write failed: {:?}", e),
                        }
                    }
                }
                Op::Truncate(n) => {
                    let path = name_of(*n);
                    if model.contains_key(&path) {
                        let ino = fs.lookup(&path).unwrap();
                        fs.truncate(ino).unwrap();
                        fs.set_size(ino, 0);
                        model.insert(path, Vec::new());
                    }
                }
                Op::Mkdir(n) => {
                    let _ = fs.mkdir(&format!("/d{n}"));
                }
            }
        }

        // Contents agree with the model.
        for (path, contents) in &model {
            let ino = fs.lookup(path).unwrap();
            prop_assert_eq!(fs.size(ino), contents.len() as u64, "size of {}", path);
            let got = fs.read_direct(&store, ino, 0, contents.len());
            prop_assert_eq!(&got, contents, "contents of {}", path);
        }

        // On-disk image checks clean after sync…
        fs.sync(&mut store);
        let rep = fsck(&store);
        prop_assert!(rep.clean(), "fsck: {:?}", rep.errors);

        // …and a fresh mount sees the same world.
        let (fs2, _) = Fs::mount(&store).expect("remountable");
        for (path, contents) in &model {
            let ino = fs2.lookup(path).unwrap();
            let got = fs2.read_direct(&store, ino, 0, contents.len());
            prop_assert_eq!(&got, contents, "post-remount contents of {}", path);
        }
    }

    #[test]
    fn sparse_writes_roundtrip(
        writes in prop::collection::vec((0u32..2_000_000, 1u16..5_000), 1..12)
    ) {
        let mut store = SparseStore::new(24 * 1024 * 1024, 8192);
        let mut fs = Fs::mkfs(&mut store, 8192, 16);
        let ino = fs.create("/sparse").unwrap();
        let mut model = Vec::new();
        for (off, len) in &writes {
            let data: Vec<u8> = (0..*len).map(|j| (j as u32 ^ off) as u8).collect();
            if fs.write_direct(&mut store, ino, *off as u64, &data).is_err() {
                // Out of space: fine, stop here.
                break;
            }
            let end = *off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[*off as usize..end].copy_from_slice(&data);
        }
        let got = fs.read_direct(&store, ino, 0, model.len());
        prop_assert_eq!(got, model);
        fs.sync(&mut store);
        prop_assert!(fsck(&store).clean());
    }
}
