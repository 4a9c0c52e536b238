//! On-disk cache of trained/pruned model weights.
//!
//! `table3` performs the expensive train → iteratively-prune pipelines;
//! `fig5` (and re-runs) can reload the resulting weights instead of
//! repeating them. The format is a minimal little-endian binary checkpoint
//! (no extra dependencies), keyed by app, variant, and scale. Every
//! function takes the cache directory explicitly: the bench entry points
//! read [`cache_dir`] once, and tests pass their own directories.

use iprune_models::{LayerWeights, Model};
use iprune_tensor::Tensor;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"IPRUNEW1";

/// The workspace root: the nearest ancestor of this crate's manifest
/// directory whose `Cargo.toml` declares `[workspace]`. Falls back to the
/// crate directory itself if no workspace manifest is found (e.g. the crate
/// was vendored standalone).
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in manifest.ancestors() {
        let cargo_toml = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&cargo_toml) {
            if text.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
    }
    manifest.to_path_buf()
}

/// The default checkpoint directory: `IPRUNE_CACHE_DIR` when set, else
/// `target/iprune_cache` under the workspace root.
pub fn cache_dir() -> PathBuf {
    match std::env::var("IPRUNE_CACHE_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => workspace_root().join("target").join("iprune_cache"),
    }
}

/// Path of one checkpoint in `dir`.
pub fn checkpoint_path(dir: &Path, app: &str, variant: &str, scale: &str) -> PathBuf {
    dir.join(format!("{app}_{variant}_{scale}.ckpt"))
}

fn write_tensor(w: &mut impl Write, t: &Tensor) -> io::Result<()> {
    w.write_all(&(t.dims().len() as u32).to_le_bytes())?;
    for &d in t.dims() {
        w.write_all(&(d as u32).to_le_bytes())?;
    }
    for &v in t.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_tensor(r: &mut impl Read) -> io::Result<Tensor> {
    let ndims = read_u32(r)? as usize;
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        dims.push(read_u32(r)? as usize);
    }
    let numel: usize = dims.iter().product();
    let mut data = Vec::with_capacity(numel);
    let mut b = [0u8; 4];
    for _ in 0..numel {
        r.read_exact(&mut b)?;
        data.push(f32::from_le_bytes(b));
    }
    Ok(Tensor::from_vec(&dims, data))
}

/// Saves a model's weights to the cache in `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(
    dir: &Path,
    model: &mut Model,
    app: &str,
    variant: &str,
    scale: &str,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = checkpoint_path(dir, app, variant, scale);
    let mut out: Vec<u8> = Vec::new();
    out.write_all(MAGIC)?;
    let weights = model.extract_weights();
    out.write_all(&(weights.len() as u32).to_le_bytes())?;
    for lw in &weights {
        out.write_all(&(lw.layer_id as u32).to_le_bytes())?;
        write_tensor(&mut out, &lw.w)?;
        write_tensor(&mut out, &lw.b)?;
    }
    fs::write(path, out)
}

/// Loads cached weights from `dir` into a freshly-built model. Returns
/// `false` (and leaves the model untouched) when no valid checkpoint
/// exists.
pub fn load(dir: &Path, model: &mut Model, app: &str, variant: &str, scale: &str) -> bool {
    let path = checkpoint_path(dir, app, variant, scale);
    let Ok(bytes) = fs::read(&path) else {
        return false;
    };
    let mut r = io::Cursor::new(bytes);
    let mut magic = [0u8; 8];
    if r.read_exact(&mut magic).is_err() || &magic != MAGIC {
        return false;
    }
    let Ok(n) = read_u32(&mut r) else {
        return false;
    };
    let mut weights = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let Ok(layer_id) = read_u32(&mut r) else {
            return false;
        };
        let (Ok(w), Ok(b)) = (read_tensor(&mut r), read_tensor(&mut r)) else {
            return false;
        };
        weights.push(LayerWeights { layer_id: layer_id as usize, w, b });
    }
    model.load_weights(&weights);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprune_models::zoo::App;

    #[test]
    fn workspace_root_is_a_real_workspace() {
        let root = workspace_root();
        let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"), "{} is not a workspace root", root.display());
        // this crate must live somewhere beneath it
        assert!(Path::new(env!("CARGO_MANIFEST_DIR")).starts_with(&root));
    }

    #[test]
    fn cache_dir_defaults_under_workspace_target() {
        let default = workspace_root().join("target").join("iprune_cache");
        assert!(default.ends_with("target/iprune_cache"));
        if std::env::var("IPRUNE_CACHE_DIR").is_err() {
            assert_eq!(cache_dir(), default);
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("iprune_cache_test_{}", std::process::id()));
        let mut m = App::Har.build();
        // mutate a weight so the roundtrip is meaningful
        use iprune_tensor::layer::Layer;
        m.visit_params(&mut |p| {
            if p.name == "conv0.w" {
                p.value.data_mut()[0] = 0.125;
                p.value.data_mut()[1] = 0.0;
            }
        });
        save(&dir, &mut m, "HAR", "test", "smoke").unwrap();
        assert!(checkpoint_path(&dir, "HAR", "test", "smoke").is_file());
        let mut fresh = App::Har.build();
        assert!(load(&dir, &mut fresh, "HAR", "test", "smoke"));
        let a = m.extract_weights();
        let b = fresh.extract_weights();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.w.data(), y.w.data());
            assert_eq!(x.b.data(), y.b.data());
        }
        // zero weights stay pruned after load
        assert!(fresh.extract_weights()[0].w.data()[1] == 0.0);
        assert!(!load(&dir, &mut fresh, "HAR", "missing", "smoke"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
