//! Multi-version-store checkpoints: the base state cold recovery replays from.
//!
//! A checkpoint file `ckpt-<height:020>.bin` captures a [`StoreBackend`] exactly as it stood
//! after applying blocks `1..=height`: backend shape (unsharded, or `S` hash-routed shards),
//! heights, pruning horizons, and every per-key version chain in `BTreeMap` key
//! order — a deterministic byte image, CRC-framed like a segment record. Writes go through a
//! temp file plus rename, so a crash mid-checkpoint leaves either the old file set or the new
//! one, never a half-written checkpoint under the final name.
//!
//! Recovery loads the *newest valid* checkpoint at or below the ledger height whose shape
//! matches the configured sharding: individually corrupt, too-new, or mis-shaped candidates
//! are skipped (older checkpoints or the genesis replay cover for them), so one bad file can
//! never wedge a restart.

use crate::codec::{crc32, ByteReader, ByteWriter};
use crate::error::LedgerError;
use eov_common::shard::ShardRouter;
use eov_vstore::{MultiVersionStore, ShardedStore, StateRead, StoreBackend};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file (format version 1).
const CHECKPOINT_MAGIC: &[u8; 8] = b"EOVCKP01";

/// Partitioning tag of a sharded checkpoint: FNV-1a hash routing, the only partitioning.
/// Any other tag is rejected as unknown.
const HASH_PARTITIONING: u8 = 0;

/// Smallest encoding of one shard: `last_block`, `pruned_below` and the key count, 8 bytes
/// each.
const MIN_SHARD_BYTES: usize = 24;

/// File name of the checkpoint at `height`.
pub fn checkpoint_file_name(height: u64) -> String {
    format!("ckpt-{height:020}.bin")
}

fn put_shard(w: &mut ByteWriter, shard: &MultiVersionStore) {
    w.put_u64(shard.last_block());
    w.put_u64(shard.pruned_below());
    w.put_u64(shard.key_count() as u64);
    for (key, chain) in shard.iter_history() {
        w.put_bytes(key.as_str().as_bytes());
        w.put_u32(chain.len() as u32);
        for version in chain {
            w.put_seqno(version.version);
            w.put_bytes(version.value.as_bytes());
        }
    }
}

fn get_shard(r: &mut ByteReader<'_>) -> Result<MultiVersionStore, String> {
    let last_block = r.get_u64("shard last_block")?;
    let pruned_below = r.get_u64("shard pruned_below")?;
    let key_count = r.get_u64("shard key count")?;
    let mut shard = MultiVersionStore::new();
    for _ in 0..key_count {
        let key = r.get_key("chain key")?;
        let versions = r.get_u32("chain length")?;
        for _ in 0..versions {
            let version = r.get_seqno("chain version")?;
            let value = eov_common::rwset::Value::from_bytes(r.get_bytes("chain value")?.to_vec());
            shard.put(key.clone(), version, value);
        }
    }
    shard.restore_heights(last_block, pruned_below);
    Ok(shard)
}

fn encode_store(height: u64, store: &StoreBackend) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(height);
    match store {
        StoreBackend::Unsharded(s) => {
            w.put_u8(0);
            put_shard(&mut w, s);
        }
        StoreBackend::Sharded(s) => {
            w.put_u8(1);
            w.put_u32(s.shard_count() as u32);
            w.put_u8(HASH_PARTITIONING);
            w.put_u64(StateRead::last_block(s));
            for i in 0..s.shard_count() {
                put_shard(&mut w, s.shard(i));
            }
        }
    }
    w.into_bytes()
}

fn decode_store(payload: &[u8]) -> Result<(u64, StoreBackend), String> {
    let mut r = ByteReader::new(payload);
    let height = r.get_u64("checkpoint height")?;
    let backend = match r.get_u8("backend tag")? {
        0 => StoreBackend::Unsharded(get_shard(&mut r)?),
        1 => {
            let shard_count = r.get_u32("shard count")?;
            if shard_count == 0 {
                return Err("sharded checkpoint with zero shards".into());
            }
            match r.get_u8("partitioning")? {
                HASH_PARTITIONING => {}
                other => return Err(format!("unknown partitioning tag {other}")),
            }
            let global_last_block = r.get_u64("global last_block")?;
            // Every shard encodes at least its three u64 header fields, so a count the rest of
            // the payload cannot hold is rejected before any shard store is allocated.
            if shard_count as usize > r.remaining() / MIN_SHARD_BYTES {
                return Err(format!(
                    "shard count {shard_count} exceeds what the remaining {} bytes can hold",
                    r.remaining()
                ));
            }
            let mut sharded = ShardedStore::new(ShardRouter::hash(shard_count as usize));
            for i in 0..shard_count as usize {
                *sharded.shard_mut(i) = get_shard(&mut r)?;
            }
            sharded.restore_height(global_last_block);
            StoreBackend::Sharded(sharded)
        }
        other => return Err(format!("unknown backend tag {other}")),
    };
    if !r.is_exhausted() {
        return Err("trailing bytes after checkpoint payload".into());
    }
    Ok((height, backend))
}

/// Frames a checkpoint payload: magic, payload length, payload CRC, payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&crc32(payload).to_be_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Writes a checkpoint of `store` at its current height into `dir` (atomically: temp file +
/// rename). Returns the height and the final path.
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    store: &StoreBackend,
    fsync: bool,
) -> Result<(u64, PathBuf), LedgerError> {
    let dir = dir.as_ref();
    let height = store.last_block();
    let bytes = frame(&encode_store(height, store));

    let path = dir.join(checkpoint_file_name(height));
    let tmp = dir.join(format!("{}.tmp", checkpoint_file_name(height)));
    fs::write(&tmp, &bytes).map_err(|e| LedgerError::io(&tmp, e))?;
    if fsync {
        let file = fs::File::open(&tmp).map_err(|e| LedgerError::io(&tmp, e))?;
        file.sync_data().map_err(|e| LedgerError::io(&tmp, e))?;
    }
    fs::rename(&tmp, &path).map_err(|e| LedgerError::io(&path, e))?;
    Ok((height, path))
}

/// Loads one checkpoint file, validating magic, CRC and structure.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<(u64, StoreBackend), LedgerError> {
    let path = path.as_ref();
    let bytes = fs::read(path).map_err(|e| LedgerError::io(path, e))?;
    let corrupt = |detail: &str| LedgerError::CorruptCheckpoint {
        path: path.to_path_buf(),
        detail: detail.into(),
    };
    if bytes.len() < 16 || &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt("missing or invalid checkpoint header"));
    }
    let len = u32::from_be_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let stored_crc = u32::from_be_bytes(bytes[12..16].try_into().unwrap());
    if bytes.len() != 16 + len {
        return Err(corrupt("checkpoint length does not match its frame"));
    }
    let payload = &bytes[16..];
    if crc32(payload) != stored_crc {
        return Err(corrupt("CRC mismatch"));
    }
    decode_store(payload).map_err(|detail| LedgerError::CorruptCheckpoint {
        path: path.to_path_buf(),
        detail,
    })
}

/// The heights of every checkpoint file in `dir`, ascending (parsed from file names; files
/// whose names do not parse are ignored).
pub fn checkpoint_heights(dir: impl AsRef<Path>) -> Result<Vec<(u64, PathBuf)>, LedgerError> {
    let dir = dir.as_ref();
    let entries = fs::read_dir(dir).map_err(|e| LedgerError::io(dir, e))?;
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| LedgerError::io(dir, e))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if let Some(height) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".bin"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((height, path));
        }
    }
    found.sort();
    Ok(found)
}

/// Loads the newest *valid* checkpoint at or below `max_height` whose shape matches
/// `expected_shards` (the `CcConfig::store_shards` knob: `0` = unsharded). Corrupt,
/// mis-shaped or too-new candidates are skipped — recovery falls back to an older checkpoint
/// or, with none left, to a genesis replay (`Ok(None)`).
pub fn latest_checkpoint_at_most(
    dir: impl AsRef<Path>,
    max_height: u64,
    expected_shards: usize,
) -> Result<Option<(u64, StoreBackend)>, LedgerError> {
    let mut candidates = checkpoint_heights(dir.as_ref())?;
    candidates.retain(|(height, _)| *height <= max_height);
    for (height, path) in candidates.into_iter().rev() {
        let Ok((decoded_height, store)) = load_checkpoint(&path) else {
            continue;
        };
        let shape_matches = match (&store, expected_shards) {
            (StoreBackend::Unsharded(_), 0) => true,
            (StoreBackend::Sharded(s), n) => s.shard_count() == n,
            _ => false,
        };
        if decoded_height == height && shape_matches {
            return Ok(Some((height, store)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::{Key, Value};
    use eov_common::txn::Transaction;
    use eov_vstore::StateStore;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "eov-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn populated(shards: usize, blocks: u64) -> StoreBackend {
        let mut store = StoreBackend::for_shards(shards);
        store.seed_genesis((0..6).map(|i| (Key::new(format!("k{i}")), Value::from_i64(i))));
        for b in 1..=blocks {
            let txn = Transaction::from_parts(
                b,
                b - 1,
                [],
                (0..3).map(|i| {
                    (
                        Key::new(format!("k{}", (b as usize + i) % 6)),
                        Value::from_i64(b as i64 * 10 + i as i64),
                    )
                }),
            );
            store.apply_block(b, [(&txn, 1)]);
        }
        store
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical_for_every_backend() {
        for shards in [0usize, 2, 4] {
            let dir = temp_dir(&format!("rt{shards}"));
            let store = populated(shards, 7);
            let (height, path) = write_checkpoint(&dir, &store, false).unwrap();
            assert_eq!(height, 7);
            let (loaded_height, loaded) = load_checkpoint(&path).unwrap();
            assert_eq!(loaded_height, 7);
            assert_eq!(loaded, store, "S={shards}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn latest_checkpoint_respects_height_bound_and_shape() {
        let dir = temp_dir("latest");
        for blocks in [2u64, 5, 9] {
            write_checkpoint(&dir, &populated(2, blocks), false).unwrap();
        }
        // Newest at or below the bound wins.
        let (height, _) = latest_checkpoint_at_most(&dir, 7, 2).unwrap().unwrap();
        assert_eq!(height, 5);
        let (height, _) = latest_checkpoint_at_most(&dir, 100, 2).unwrap().unwrap();
        assert_eq!(height, 9);
        // Shape mismatch (recovering unsharded, checkpoints are 2-sharded): genesis replay.
        assert!(latest_checkpoint_at_most(&dir, 100, 0).unwrap().is_none());
        assert!(latest_checkpoint_at_most(&dir, 1, 2).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_newest_checkpoint_falls_back_to_an_older_one() {
        let dir = temp_dir("fallback");
        write_checkpoint(&dir, &populated(0, 3), false).unwrap();
        let (_, newest) = write_checkpoint(&dir, &populated(0, 6), false).unwrap();
        // Flip one payload byte of the newest checkpoint.
        let mut bytes = std::fs::read(&newest).unwrap();
        let target = bytes.len() - 5;
        bytes[target] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            load_checkpoint(&newest),
            Err(LedgerError::CorruptCheckpoint { .. })
        ));
        let (height, store) = latest_checkpoint_at_most(&dir, 10, 0).unwrap().unwrap();
        assert_eq!(height, 3);
        assert_eq!(store, populated(0, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// CRC-valid checkpoints with a hostile shard header are typed errors, not huge
    /// allocations or panics, and recovery falls back past them to an older checkpoint.
    #[test]
    fn hostile_shard_headers_are_rejected_and_skipped() {
        let dir = temp_dir("hostile");
        write_checkpoint(&dir, &populated(2, 3), false).unwrap();

        // A shard count of u32::MAX with no shard bytes behind it.
        let mut w = ByteWriter::new();
        w.put_u64(6); // height
        w.put_u8(1); // sharded backend
        w.put_u32(u32::MAX);
        w.put_u8(HASH_PARTITIONING);
        w.put_u64(6); // global last_block
        let huge = dir.join(checkpoint_file_name(6));
        fs::write(&huge, frame(&w.into_bytes())).unwrap();
        match load_checkpoint(&huge) {
            Err(LedgerError::CorruptCheckpoint { detail, .. }) => {
                assert!(detail.contains("shard count"), "{detail}")
            }
            other => panic!("expected a corrupt-checkpoint error, got {other:?}"),
        }

        // A partitioning tag other than hash (payload offset: height 8 + backend 1 + count 4).
        let mut payload = encode_store(9, &populated(2, 9));
        payload[13] = 1;
        let ranged = dir.join(checkpoint_file_name(9));
        fs::write(&ranged, frame(&payload)).unwrap();
        match load_checkpoint(&ranged) {
            Err(LedgerError::CorruptCheckpoint { detail, .. }) => {
                assert!(detail.contains("unknown partitioning tag 1"), "{detail}")
            }
            other => panic!("expected a corrupt-checkpoint error, got {other:?}"),
        }

        let (height, store) = latest_checkpoint_at_most(&dir, 10, 2).unwrap().unwrap();
        assert_eq!(height, 3);
        assert_eq!(store, populated(2, 3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruned_stores_checkpoint_their_horizon() {
        let dir = temp_dir("pruned");
        let mut store = populated(0, 6);
        store.prune_versions_below(4);
        let (_, path) = write_checkpoint(&dir, &store, false).unwrap();
        let (_, loaded) = load_checkpoint(&path).unwrap();
        assert_eq!(loaded, store);
        assert_eq!(loaded.pruned_below(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
