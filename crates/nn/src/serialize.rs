//! Versioned binary (de)serialization of whole networks.
//!
//! The format (`FTCW`, little-endian) stores both the **architecture** and
//! the **parameters**, so a trained model can be reloaded without its
//! constructor — this is what lets the model zoo cache trained networks on
//! disk between experiment runs.
//!
//! ```text
//! magic   b"FTCW"
//! version u32 (currently 1)
//! layers  u32
//! repeat per layer:
//!   tag u8
//!   0 conv2d : in_c u32, out_c u32, kernel u32, stride u32, pad u32,
//!              weight f32[out_c·in_c·k·k], bias f32[out_c]
//!   1 linear : in_f u32, out_f u32, weight f32[out_f·in_f], bias f32[out_f]
//!   2 act    : act_tag u8 (+ f32 params, see below)
//!   3 maxpool: kernel u32, stride u32
//!   4 avgpool: kernel u32, stride u32
//!   5 flatten
//!   6 dropout: p f32
//!   7 batchnorm2d: channels u32, eps f32, momentum f32,
//!                  gamma f32[c], beta f32[c],
//!                  running_mean f32[c], running_var f32[c]
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use ftclip_tensor::Tensor;

use crate::{
    Activation, AvgPool2d, BatchNorm2d, Conv2d, Dropout, Layer, Linear, MaxPool2d, NnError, Sequential,
};

/// Current file-format version.
pub const FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 4] = b"FTCW";

/// Serializes a network to any writer.
///
/// # Errors
///
/// Returns [`NnError::Io`] on write failure.
pub fn write_network<W: Write>(net: &Sequential, mut w: W) -> Result<(), NnError> {
    w.write_all(MAGIC)?;
    write_u32(&mut w, FORMAT_VERSION)?;
    write_u32(&mut w, net.len() as u32)?;
    for layer in net.layers() {
        match layer {
            Layer::Conv2d(c) => {
                w.write_all(&[0u8])?;
                let geom = c.geometry();
                for v in [c.in_channels(), c.out_channels(), geom.kernel, geom.stride, geom.pad] {
                    write_u32(&mut w, v as u32)?;
                }
                write_f32s(&mut w, c.weight().data())?;
                write_f32s(&mut w, c.bias().data())?;
            }
            Layer::Linear(l) => {
                w.write_all(&[1u8])?;
                write_u32(&mut w, l.in_features() as u32)?;
                write_u32(&mut w, l.out_features() as u32)?;
                write_f32s(&mut w, l.weight().data())?;
                write_f32s(&mut w, l.bias().data())?;
            }
            Layer::Activation(a) => {
                w.write_all(&[2u8])?;
                write_activation(&mut w, a.func)?;
            }
            Layer::MaxPool2d(p) => {
                w.write_all(&[3u8])?;
                write_u32(&mut w, p.kernel() as u32)?;
                write_u32(&mut w, p.stride() as u32)?;
            }
            Layer::AvgPool2d(p) => {
                w.write_all(&[4u8])?;
                write_u32(&mut w, p.kernel() as u32)?;
                write_u32(&mut w, p.stride() as u32)?;
            }
            Layer::Flatten { .. } => {
                w.write_all(&[5u8])?;
            }
            Layer::Dropout(d) => {
                w.write_all(&[6u8])?;
                write_f32(&mut w, d.probability())?;
            }
            Layer::BatchNorm2d(b) => {
                w.write_all(&[7u8])?;
                write_u32(&mut w, b.channels() as u32)?;
                write_f32(&mut w, b.eps())?;
                write_f32(&mut w, b.momentum())?;
                write_f32s(&mut w, b.gamma().data())?;
                write_f32s(&mut w, b.beta().data())?;
                write_f32s(&mut w, b.running_mean().data())?;
                write_f32s(&mut w, b.running_var().data())?;
            }
        }
    }
    Ok(())
}

/// Deserializes a network from any reader.
///
/// # Errors
///
/// Returns [`NnError::Format`] for malformed data or an unsupported version,
/// and [`NnError::Io`] on read failure.
pub fn read_network<R: Read>(mut r: R) -> Result<Sequential, NnError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NnError::Format { reason: format!("bad magic {magic:?}") });
    }
    let version = read_u32(&mut r)?;
    if version != FORMAT_VERSION {
        return Err(NnError::Format { reason: format!("unsupported version {version}") });
    }
    let n_layers = read_u32(&mut r)? as usize;
    if n_layers > 100_000 {
        return Err(NnError::Format { reason: format!("implausible layer count {n_layers}") });
    }
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let tag = read_u8(&mut r)?;
        let layer = match tag {
            0 => {
                let in_c = read_u32(&mut r)? as usize;
                let out_c = read_u32(&mut r)? as usize;
                let kernel = read_u32(&mut r)? as usize;
                let stride = read_u32(&mut r)? as usize;
                let pad = read_u32(&mut r)? as usize;
                check_dims(&[in_c, out_c, kernel, stride])?;
                let weight = read_tensor(&mut r, &[out_c, in_c * kernel * kernel])?;
                let bias = read_tensor(&mut r, &[out_c])?;
                Layer::Conv2d(Conv2d::from_parts(in_c, out_c, kernel, stride, pad, weight, bias))
            }
            1 => {
                let in_f = read_u32(&mut r)? as usize;
                let out_f = read_u32(&mut r)? as usize;
                check_dims(&[in_f, out_f])?;
                let weight = read_tensor(&mut r, &[out_f, in_f])?;
                let bias = read_tensor(&mut r, &[out_f])?;
                Layer::Linear(Linear::from_parts(in_f, out_f, weight, bias))
            }
            2 => Layer::activation(read_activation(&mut r)?),
            3 => {
                let kernel = read_u32(&mut r)? as usize;
                let stride = read_u32(&mut r)? as usize;
                check_dims(&[kernel, stride])?;
                Layer::MaxPool2d(MaxPool2d::new(kernel, stride))
            }
            4 => {
                let kernel = read_u32(&mut r)? as usize;
                let stride = read_u32(&mut r)? as usize;
                check_dims(&[kernel, stride])?;
                Layer::AvgPool2d(AvgPool2d::new(kernel, stride))
            }
            5 => Layer::flatten(),
            6 => {
                let p = read_f32(&mut r)?;
                if !(0.0..1.0).contains(&p) {
                    return Err(NnError::Format { reason: format!("bad dropout probability {p}") });
                }
                Layer::Dropout(Dropout::new(p))
            }
            7 => {
                let channels = read_u32(&mut r)? as usize;
                check_dims(&[channels])?;
                let eps = read_f32(&mut r)?;
                let momentum = read_f32(&mut r)?;
                let hyper_valid = eps > 0.0 && momentum > 0.0 && momentum <= 1.0;
                if !hyper_valid {
                    return Err(NnError::Format {
                        reason: format!("bad batchnorm hyper-params eps={eps} momentum={momentum}"),
                    });
                }
                let gamma = read_tensor(&mut r, &[channels])?;
                let beta = read_tensor(&mut r, &[channels])?;
                let running_mean = read_tensor(&mut r, &[channels])?;
                let running_var = read_tensor(&mut r, &[channels])?;
                Layer::BatchNorm2d(BatchNorm2d::from_parts(
                    channels,
                    eps,
                    momentum,
                    gamma,
                    beta,
                    running_mean,
                    running_var,
                ))
            }
            other => return Err(NnError::Format { reason: format!("unknown layer tag {other}") }),
        };
        layers.push(layer);
    }
    Ok(Sequential::new(layers))
}

/// Saves a network to `path` (creating parent directories).
///
/// # Errors
///
/// Returns [`NnError::Io`] on filesystem failure.
pub fn save_network<P: AsRef<Path>>(net: &Sequential, path: P) -> Result<(), NnError> {
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = File::create(path)?;
    write_network(net, BufWriter::new(file))
}

/// Loads a network from `path`.
///
/// # Errors
///
/// Returns [`NnError::Io`] if the file cannot be read and
/// [`NnError::Format`] if it is malformed.
pub fn load_network<P: AsRef<Path>>(path: P) -> Result<Sequential, NnError> {
    let file = File::open(path)?;
    read_network(BufReader::new(file))
}

fn write_activation<W: Write>(w: &mut W, a: Activation) -> Result<(), NnError> {
    match a {
        Activation::Identity => w.write_all(&[0u8])?,
        Activation::Relu => w.write_all(&[1u8])?,
        Activation::ClippedRelu { threshold } => {
            w.write_all(&[2u8])?;
            write_f32(w, threshold)?;
        }
        Activation::SaturatedRelu { threshold } => {
            w.write_all(&[3u8])?;
            write_f32(w, threshold)?;
        }
        Activation::LeakyRelu { slope } => {
            w.write_all(&[4u8])?;
            write_f32(w, slope)?;
        }
        Activation::ClippedLeakyRelu { slope, threshold } => {
            w.write_all(&[5u8])?;
            write_f32(w, slope)?;
            write_f32(w, threshold)?;
        }
    }
    Ok(())
}

fn read_activation<R: Read>(r: &mut R) -> Result<Activation, NnError> {
    Ok(match read_u8(r)? {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::ClippedRelu { threshold: read_f32(r)? },
        3 => Activation::SaturatedRelu { threshold: read_f32(r)? },
        4 => Activation::LeakyRelu { slope: read_f32(r)? },
        5 => Activation::ClippedLeakyRelu { slope: read_f32(r)?, threshold: read_f32(r)? },
        other => return Err(NnError::Format { reason: format!("unknown activation tag {other}") }),
    })
}

fn check_dims(dims: &[usize]) -> Result<(), NnError> {
    for &d in dims {
        if d == 0 || d > 1 << 24 {
            return Err(NnError::Format { reason: format!("implausible dimension {d}") });
        }
    }
    Ok(())
}

fn read_tensor<R: Read>(r: &mut R, dims: &[usize]) -> Result<Tensor, NnError> {
    let volume: usize = dims.iter().product();
    let mut buf = vec![0u8; volume * 4];
    r.read_exact(&mut buf)?;
    let data: Vec<f32> = buf
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Tensor::from_vec(data, dims).map_err(|e| NnError::Format { reason: e.to_string() })
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u8<R: Read>(r: &mut R) -> std::io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn write_f32<W: Write>(w: &mut W, v: f32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_f32<R: Read>(r: &mut R) -> std::io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn write_f32s<W: Write>(w: &mut W, vs: &[f32]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(vs.len() * 4);
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scratch, Span};

    fn forward(net: &Sequential, x: &Tensor) -> Tensor {
        net.execute(x, Span::full(), &mut Scratch::new())
    }

    fn sample_net() -> Sequential {
        Sequential::new(vec![
            Layer::conv2d(3, 4, 3, 1, 1, 20),
            Layer::BatchNorm2d(BatchNorm2d::new(4)),
            Layer::activation(Activation::ClippedRelu { threshold: 3.5 }),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::AvgPool2d(AvgPool2d::new(2, 2)),
            Layer::flatten(),
            Layer::Dropout(Dropout::new(0.25)),
            Layer::linear(4 * 2 * 2, 5, 21),
            Layer::activation(Activation::ClippedLeakyRelu { slope: 0.01, threshold: 9.0 }),
        ])
    }

    #[test]
    fn roundtrip_preserves_architecture_and_outputs() {
        let net = sample_net();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let loaded = read_network(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), net.len());
        assert_eq!(loaded.clip_thresholds(), net.clip_thresholds());
        let x = Tensor::ones(&[2, 3, 8, 8]);
        assert!(forward(&net, &x).approx_eq(&forward(&loaded, &x), 0.0));
    }

    #[test]
    fn roundtrip_via_file() {
        let net = sample_net();
        let dir = std::env::temp_dir().join("ftclip-serialize-test");
        let path = dir.join("net.ftcw");
        save_network(&net, &path).unwrap();
        let loaded = load_network(&path).unwrap();
        let x = Tensor::ones(&[1, 3, 8, 8]);
        assert!(forward(&net, &x).approx_eq(&forward(&loaded, &x), 0.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_network(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, NnError::Format { .. }));
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(read_network(buf.as_slice()), Err(NnError::Format { .. })));
    }

    #[test]
    fn rejects_truncated_file() {
        let net = sample_net();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_network(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_unknown_layer_tag() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(200u8);
        assert!(matches!(read_network(buf.as_slice()), Err(NnError::Format { .. })));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_network("/nonexistent/net.ftcw").unwrap_err();
        assert!(matches!(err, NnError::Io(_)));
    }
}
