// Tables of the 128-layer ziggurat behind Rng::normal (Marsaglia & Tsang,
// "The Ziggurat Method for Generating Random Variables", 2000).
//
// The standard normal density, unnormalised as f(x) = exp(-x^2 / 2), is
// covered by 128 regions of equal area v: a base strip [0, R] x [0, f(R)]
// plus the tail beyond R (layer 0), and 127 rectangles stacked on it.
// Layer i (1..127) spans x in [0, x_i] and y in [f(x_i), f(x_(i-1))], with
// x_127 = R, x_(i-1) = f^-1(f(x_i) + v / x_i), and x_0 = 0 at the peak. R is
// the root at which the top layer closes exactly; R, v and every x_i were
// solved at 60 significant digits and rounded once to double.
//
// A draw's low 7 bits name the layer and its top 53 bits a signed integer j
// in [-2^52, 2^52). For layer i:
//   kLayerBound[i]  floor(2^52 * x_(i-1) / x_i): |j| below it lies in the
//                   part of the layer under the curve (0 for the top layer);
//                   for layer 0, floor(2^52 * R / q) with q = v / f(R).
//   kLayerWidth[i]  x_i * 2^-52, so j * kLayerWidth[i] is the candidate x;
//                   for layer 0, q * 2^-52.
//   kLayerDensity[i] f(x_i), with kLayerDensity[0] = f(0) = 1: the wedge
//                   test draws its height in [f(x_i), f(x_(i-1))).
// The tables are constant-initialised literals, so the inline fast path
// reads them without a static-initialisation guard or order hazard.
#pragma once

#include <array>
#include <cstdint>

namespace pmware::ziggurat {

inline constexpr int kLayers = 128;

/// Right edge of the base strip, where the tail begins.
inline constexpr double kR = 0x1.b8a7c476d1741p+1;  // 3.442619855896652

inline constexpr std::array<std::int64_t, kLayers> kLayerBound = {
    0xed5a442469c86, 0x0000000000000, 0xc01e36a71ab09,
    0xd9c88f4d8196a, 0xe4b68d43fed6a, 0xeac00a3a040d4,
    0xee9243d6d8ea3, 0xf1344b7af4e42, 0xf3208b87a197a,
    0xf4979cba30c87, 0xf5bec53e6296a, 0xf6ad054c5acb1,
    0xf771518c32c93, 0xf815ce44612cb, 0xf8a199cebca78,
    0xf919d8b6b9594, 0xf98259adad18c, 0xf9ddfda5b286c,
    0xfa2efc1667f12, 0xfa77110617069, 0xfab79cd957292,
    0xfaf1bac8fa7f9, 0xfb26510c6d071, 0xfb561cafbb9ed,
    0xfb81ba60a1dd6, 0xfba9ad1171480, 0xfbce630a82c39,
    0xfbf039d4a3f47, 0xfc0f8147e0d63, 0xfc2c7df4cf4d6,
    0xfc476b0fc6cba, 0xfc607bfb0eb27, 0xfc77dd85a7a76,
    0xfc8db6eefbc49, 0xfca22abbd9f86, 0xfcb557663edcd,
    0xfcc757ef46ebf, 0xfcd8445907b16, 0xfce8320cd30d2,
    0xfcf7343176cb3, 0xfd055bf4510cd, 0xfd12b8c7819d6,
    0xfd1f58970f524, 0xfd2b47f67f96e, 0xfd36924817bd2,
    0xfd4141dec7703, 0xfd4b601b8e90c, 0xfd54f5870c6c7,
    0xfd5e09e7c8d03, 0xfd66a455af7c8, 0xfd6ecb4b22e88,
    0xfd7684b3fb21d, 0xfd7dd5fab84c2, 0xfd84c414253d5,
    0xfd8b53899d846, 0xfd91888222809, 0xfd9766ca64bc2,
    0xfd9cf1dbe152d, 0xfda22ce32e93d, 0xfda71ac58f28a,
    0xfdabbe25dfb4d, 0xfdb01968f0057, 0xfdb42eb9566fe,
    0xfdb8000ac9d97, 0xfdbb8f1d0d018, 0xfdbedd7e7400c,
    0xfdc1ec8e0b749, 0xfdc4bd7d677d5, 0xfdc751521f7ce,
    0xfdc9a8e6fa666, 0xfdcbc4ecce608, 0xfdcda5eb15778,
    0xfdcf4c403820a, 0xfdd0b8218d4e9, 0xfdd1e99b0ed52,
    0xfdd2e08ebfc9e, 0xfdd39cb3c16b7, 0xfdd41d9511e20,
    0xfdd4628feecae, 0xfdd46ad1d3fcb, 0xfdd435560d34c,
    0xfdd3c0e2cf5d4, 0xfdd30c05cbca7, 0xfdd215102d142,
    0xfdd0da11e9f84, 0xfdcf58d456e0c, 0xfdcd8ed3da109,
    0xfdcb7938a0f83, 0xfdc914ce2e802, 0xfdc65df991f31,
    0xfdc350ae0c352, 0xfdbfe85fdcab9, 0xfdbc1ff4dff8a,
    0xfdb7f1b297b7f, 0xfdb357291a996, 0xfdae491a4e357,
    0xfda8bf5ca5dda, 0xfda2b0b870f3d, 0xfd9c12be84a32,
    0xfd94d996bb7b7, 0xfd8cf7c45b13c, 0xfd845ddde3917,
    0xfd7afa35123bb, 0xfd70b86ae561f, 0xfd6580ea1b2bb,
    0xfd593840d12ae, 0xfd4bbe4f6092c, 0xfd3ced3f00195,
    0xfd2c982d9aad3, 0xfd1a8974e5bec, 0xfd068067ddaaa,
    0xfcf02e5177e25, 0xfcd7326658ef5, 0xfcbb14343dfc6,
    0xfc9b3bdb13e7c, 0xfc76e6f466e49, 0xfc4d185e5531b,
    0xfc1c7fea75fb0, 0xfbe354bbf1766, 0xfb9f18e44c3e1,
    0xfb4c343c9e1c4, 0xfae541f793634, 0xfa61c12ef4eb6,
    0xf9b36957d7631, 0xf8c01e3503b07, 0xf75217b867633,
    0xf4e442ecd31e4, 0xefacc9cb3e7aa,
};

inline constexpr std::array<double, kLayers> kLayerWidth = {
    0x1.db4668fe7d167p-51, 0x1.16db47dfb32bdp-54, 0x1.73949183add9dp-54,
    0x1.b4c8fecd63b02p-54, 0x1.e8e576e3830fap-54, 0x1.0a936da5942d2p-53,
    0x1.1e0ce6b54ec53p-53, 0x1.2f98d6bb0e73ap-53, 0x1.3fabee18d682fp-53,
    0x1.4e94c08bd4d78p-53, 0x1.5c8afdbecef6ep-53, 0x1.69b7b213c3f64p-53,
    0x1.763a1600c1764p-53, 0x1.822a858ac5ecap-53, 0x1.8d9c6a9d0cf67p-53,
    0x1.989f85c72c985p-53, 0x1.a340d1bad0391p-53, 0x1.ad8b25067d385p-53,
    0x1.b787a7c4f44a4p-53, 0x1.c13e2b012d149p-53, 0x1.cab56ac6833a5p-53,
    0x1.d3f340dd86c6bp-53, 0x1.dcfccc51a7480p-53, 0x1.e5d6909f34423p-53,
    0x1.ee848e954b85cp-53, 0x1.f70a5866ad189p-53, 0x1.ff6b21ffe30ecp-53,
    0x1.03d4e7390f210p-52, 0x1.07e47d879726ep-52, 0x1.0be58456f2afcp-52,
    0x1.0fd911b972d18p-52, 0x1.13c024b2bbdffp-52, 0x1.179ba80458345p-52,
    0x1.1b6c7492bde7ap-52, 0x1.1f33537495bfap-52, 0x1.22f0ffba96ce9p-52,
    0x1.26a627fb9231dp-52, 0x1.2a536fae26375p-52, 0x1.2df97057dd75fp-52,
    0x1.3198ba9823477p-52, 0x1.3531d71460289p-52, 0x1.38c54749af146p-52,
    0x1.3c538647e5b53p-52, 0x1.3fdd0959138fbp-52, 0x1.4362409821672p-52,
    0x1.46e39778d4ba1p-52, 0x1.4a6175432745fp-52, 0x1.4ddc3d839cb58p-52,
    0x1.5154507206658p-52, 0x1.54ca0b4ff476ap-52, 0x1.583dc8bfea848p-52,
    0x1.5bafe1164c044p-52, 0x1.5f20aaa4d7638p-52, 0x1.62907a016eac0p-52,
    0x1.65ffa248d7f43p-52, 0x1.696e755e0eb23p-52, 0x1.6cdd4426b0a02p-52,
    0x1.704c5ec504e8fp-52, 0x1.73bc14d01277fp-52, 0x1.772cb58a3242ap-52,
    0x1.7a9e9016840d7p-52, 0x1.7e11f3ada7506p-52, 0x1.81872fd216669p-52,
    0x1.84fe948480027p-52, 0x1.8878727879e86p-52, 0x1.8bf51b49e8281p-52,
    0x1.8f74e1b375764p-52, 0x1.92f819c67bdfdp-52, 0x1.967f1924c0e62p-52,
    0x1.9a0a373c6d3ccp-52, 0x1.9d99cd86aeea8p-52, 0x1.a12e37c97caa0p-52,
    0x1.a4c7d45cfb2a5p-52, 0x1.a8670475107fbp-52, 0x1.ac0c2c6fbfe60p-52,
    0x1.afb7b428f83acp-52, 0x1.b36a075492a98p-52, 0x1.b72395df55593p-52,
    0x1.bae4d457e8092p-52, 0x1.beae3c60c7179p-52, 0x1.c2804d2c6531dp-52,
    0x1.c65b8c04d5d84p-52, 0x1.ca4084e08c207p-52, 0x1.ce2fcb05f3115p-52,
    0x1.d229f9bfe95c7p-52, 0x1.d62fb5257b279p-52, 0x1.da41aaf794b3cp-52,
    0x1.de609397db2b3p-52, 0x1.e28d331c61c36p-52, 0x1.e6c85a8495b0dp-52,
    0x1.eb12e914817afp-52, 0x1.ef6dcddc7807dp-52, 0x1.f3da09745b605p-52,
    0x1.f858aff317ac8p-52, 0x1.fceaeb2ca0ee2p-52, 0x1.00c8fea16f933p-51,
    0x1.0327a1cc4a836p-51, 0x1.05921d1c4b0b9p-51, 0x1.08093fe3e1aa9p-51,
    0x1.0a8ded0ec1159p-51, 0x1.0d211dd288ac4p-51, 0x1.0fc3e4d95cda5p-51,
    0x1.1277720181096p-51, 0x1.153d16d455057p-51, 0x1.18164be0bf8c9p-51,
    0x1.1b04b731f48d4p-51, 0x1.1e0a342cee675p-51, 0x1.2128dd36bbd01p-51,
    0x1.246317a6b3231p-51, 0x1.27bba2b5d9b7dp-51, 0x1.2b35aa5ebcda5p-51,
    0x1.2ed4df8097554p-51, 0x1.329d9725e1358p-51, 0x1.3694f3a3721bap-51,
    0x1.3ac11b8e1e839p-51, 0x1.3f29848d395fep-51, 0x1.43d75b60bac8dp-51,
    0x1.48d61806d430cp-51, 0x1.4e3456b0e1da8p-51, 0x1.540520129e8c8p-51,
    0x1.5a61edf7e73f4p-51, 0x1.616dff7c8dab3p-51, 0x1.695c2be68d3e4p-51,
    0x1.7279dd4ac2679p-51, 0x1.7d45eb36e9ff4p-51, 0x1.8aa73e440e862p-51,
    0x1.9c8e0c7c7f35ep-51, 0x1.b8a7c476d1741p-51,
};

inline constexpr std::array<double, kLayers> kLayerDensity = {
    0x1p+0, 0x1.ed5cf061144dep-1, 0x1.df6071937f4c9p-1,
    0x1.d37a74ffe486ap-1, 0x1.c8d923fa0897bp-1, 0x1.bf19b6813348bp-1,
    0x1.b6042cf926211p-1, 0x1.ad750b7275dd0p-1, 0x1.a55418112ba08p-1,
    0x1.9d8fdfaee4af6p-1, 0x1.961b4c1b19f30p-1, 0x1.8eec3c5bda1f6p-1,
    0x1.87faa61a8cfa0p-1, 0x1.81400521b52b5p-1, 0x1.7ab6f9c66e43bp-1,
    0x1.745b04d03ea40p-1, 0x1.6e2856a01cb2ap-1, 0x1.681bab4ed2ff3p-1,
    0x1.62322fc5a83b3p-1, 0x1.5c696d34a27fdp-1, 0x1.56bf3924ad864p-1,
    0x1.5131a8eff8ed9p-1, 0x1.4bbf07c6d4684p-1, 0x1.4665cea512cc7p-1,
    0x1.41249dc6579c8p-1, 0x1.3bfa3745495cdp-1, 0x1.36e57aa6a89b9p-1,
    0x1.31e5612075dadp-1, 0x1.2cf8fa7868c02p-1, 0x1.281f6a5d33891p-1,
    0x1.2357e62437dc2p-1, 0x1.1ea1b2d9fe534p-1, 0x1.19fc2397562a2p-1,
    0x1.1566980fc6949p-1, 0x1.10e07b50236c1p-1, 0x1.0c6942a5c900fp-1,
    0x1.08006ca85ac6ap-1, 0x1.03a58060f304ap-1, 0x1.feb019151c56ep-2,
    0x1.f62f4dd05d60fp-2, 0x1.edc7d75b8e9bep-2, 0x1.e578f9f2e03a3p-2,
    0x1.dd4204b59916bp-2, 0x1.d52250cdb191ep-2, 0x1.cd1940ad30932p-2,
    0x1.c5263f5ead9fcp-2, 0x1.bd48bfe6b8a90p-2, 0x1.b5803cb437071p-2,
    0x1.adcc371e07b84p-2, 0x1.a62c36ec797eap-2, 0x1.9e9fc9ed4d931p-2,
    0x1.972683912ac18p-2, 0x1.8fbffc918800bp-2, 0x1.886bd29e33e65p-2,
    0x1.8129a811b882ep-2, 0x1.79f923abf1d11p-2, 0x1.72d9f052408ddp-2,
    0x1.6bcbbcd4d4694p-2, 0x1.64ce3bb89770ep-2, 0x1.5de1230551a9bp-2,
    0x1.57042c17a74d2p-2, 0x1.503713769e39cp-2, 0x1.497998ac6017ap-2,
    0x1.42cb7e21f69bfp-2, 0x1.3c2c88fdc65e7p-2, 0x1.359c810492f8ep-2,
    0x1.2f1b307cdcc47p-2, 0x1.28a864146d917p-2, 0x1.2243eac7ee400p-2,
    0x1.1bed95cc633cbp-2, 0x1.15a5387a71a06p-2, 0x1.0f6aa83b52201p-2,
    0x1.093dbc775a1f7p-2, 0x1.031e4e8606256p-2, 0x1.fa18733ee75d5p-3,
    0x1.ee0eb59e75db3p-3, 0x1.e21f21d136fa3p-3, 0x1.d64978f7e2d92p-3,
    0x1.ca8d7f9ad4b43p-3, 0x1.beeafd99e93b6p-3, 0x1.b361be1ec9a67p-3,
    0x1.a7f18f91a0d6ap-3, 0x1.9c9a43903cae2p-3, 0x1.915baee7a2dddp-3,
    0x1.8635a99025d7bp-3, 0x1.7b280eac0c6f7p-3, 0x1.7032bc88e51fap-3,
    0x1.655594a3a5050p-3, 0x1.5a907bafba9e3p-3, 0x1.4fe359a145658p-3,
    0x1.454e19baadb54p-3, 0x1.3ad0aa9de455dp-3, 0x1.306afe619efedp-3,
    0x1.261d0aaaf7624p-3, 0x1.1be6c8cbe5a43p-3, 0x1.11c835e726135p-3,
    0x1.07c1531a357f8p-3, 0x1.fba44b5c61816p-4, 0x1.e7f56ea118c48p-4,
    0x1.d4762ca995a18p-4, 0x1.c126ac0128a82p-4, 0x1.ae071dc7bf93dp-4,
    0x1.9b17be7e73957p-4, 0x1.8858d6f55ed84p-4, 0x1.75cabd60f402ap-4,
    0x1.636dd69e998c6p-4, 0x1.514297b246583p-4, 0x1.3f49878976d30p-4,
    0x1.2d834113457cbp-4, 0x1.1bf075c21538ap-4, 0x1.0a91f0918dae5p-4,
    0x1.f2d13368cf93fp-5, 0x1.d0eaf633a6b8ap-5, 0x1.af738c17b4ea1p-5,
    0x1.8e6db483cac0fp-5, 0x1.6ddc9dd20b8c5p-5, 0x1.4dc3fcbda5a08p-5,
    0x1.2e282b7255da2p-5, 0x1.0f0e539c938c0p-5, 0x1.e0f951d58f849p-6,
    0x1.a4f57a25e8f32p-6, 0x1.6a23fa9d6c22fp-6, 0x1.309cee4e1477cp-6,
    0x1.f100847656bf0p-7, 0x1.83f4bed1a0f0bp-7, 0x1.1a9b6b3fcb829p-7,
    0x1.6ba8b0ffc2db8p-8, 0x1.5de9e33733182p-9,
};

}  // namespace pmware::ziggurat
